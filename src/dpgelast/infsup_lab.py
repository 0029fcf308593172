"""Discrete inf-sup diagnostics on unbroken conforming pairs.

For each formulation the trial slots keep their usual conforming spaces
and constraints, the broken test slots are replaced by their conforming
counterparts, and the skeleton terms drop (they vanish identically for
conforming test functions). The discrete inf-sup constant is then

    gamma_h^2 = min eig of  B^T G_Y^{-1} B  x = gamma^2 G_X x,

with G_Y the test-norm Gram and G_X the trial-norm Gram, both reduced
to unconstrained dofs. A degenerate regime with the displacement
boundary removed exposes the rigid-body kernel.

The module also computes two auxiliary stability constants of the
continuous analysis on discrete subspaces, and runs the jump screens
that certify the skeleton pairings annihilate exactly the conforming
members of the broken spaces.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla

from .mesh import Mesh, skeleton as make_skeleton
from .spaces import (
    h1_space,
    hdiv_space,
    l2_space,
    broken_h1_space,
    broken_hdiv_space,
    trace_spaces,
    volume_basis,
)
from .forms import (
    DESCRIPTORS,
    BCData,
    Formulation,
    assemble_local_blocks,
    element_quadrature,
    gram_blocks,
    scatter_blocks,
    trace_pairing_blocks,
    _contract,
)

# Default test-order bump over the trial order. The nonsymmetric pairs
# use p+1 as a stand-in for the infinite test space; the mixed pair also
# needs the bump because the equal-order unbroken pairing develops an
# exact spurious kernel on uniformly refined diagonal meshes (observed
# at the third refinement level for p = 1 and 2).
TEST_ORDER_BUMP = {"strong": 1, "ultraweak": 1, "dualmixed": 0, "mixed": 1, "primal": 0}

_TRIAL_NORM = {"H1": "H1", "Hdiv": "Hdiv", "L2sym": "L2", "L2vec": "L2", "L2skew": "L2"}


def _conforming_space(kind, mesh, order, gamma0_empty):
    if kind in ("H1", "BrokenH1"):
        return h1_space(mesh, order, gamma0_constrained=not gamma0_empty)
    if kind in ("Hdiv", "BrokenHdiv"):
        return hdiv_space(mesh, order, gamma1_constrained=True)
    if kind in ("L2sym", "L2vec", "L2skew"):
        return l2_space(mesh, order - 1, kind)
    raise ValueError(f"unknown kind {kind!r}")


def _free(space):
    return np.setdiff1d(np.arange(space.ndof), space.constrained_dofs)


def _numbered(spaces):
    """Element dofs (nelt, sum of nloc) and free dofs of spaces numbered
    one after another, and the total dof count."""
    elt, free, off = [], [], 0
    for space in spaces:
        elt.append(space.elt_dofs + off)
        free.append(_free(space) + off)
        off += space.ndof
    return np.concatenate(elt, axis=1), np.concatenate(free), off


@dataclass
class InfSupResult:
    spec_id: str
    p: int
    test_order: int
    gamma: float
    ntrial: int
    ntest: int


def discrete_infsup(spec_id, mesh: Mesh, material, p: int, gamma0_empty: bool = False, test_order=None) -> InfSupResult:
    """Discrete inf-sup constant of the unbroken conforming pair.

    B and G_Y come from the element assembly of the formulation with its
    test slots on conforming spaces and its skeleton terms dropped.
    """
    desc = DESCRIPTORS[spec_id]
    q = test_order if test_order is not None else p + TEST_ORDER_BUMP[spec_id]
    form = Formulation(
        desc=replace(desc, trace_slots=(), trace_terms=()),
        mesh=mesh,
        material=material,
        p=p,
        dp=q - p,
        bc=BCData(),
        field_spaces={n: _conforming_space(k, mesh, p, gamma0_empty) for n, k in desc.field_slots},
        trace_spaces={},
        test_spaces={n: _conforming_space(k, mesh, q, gamma0_empty) for n, k in desc.test_slots},
        skeleton=None,
    )
    rows, tfree, ntest = _numbered([form.test_spaces[n] for n, _ in desc.test_slots])
    cols, ufree, ntrial = _numbered([form.field_spaces[n] for n, _ in desc.field_slots])
    if len(ufree) == 0 or len(tfree) == 0:
        raise ValueError(
            f"{spec_id}: no unconstrained dofs left on this mesh, refine first"
        )
    degree = 2 * (max(p, q) + 1) + 2
    blocks = assemble_local_blocks(form, quad_degree=degree)
    rule, wts, _ = element_quadrature(mesh, blocks.elems, degree)
    gx = []
    for name, kind in desc.field_slots:
        s = blocks.field_slices[name]
        basis = volume_basis(form.field_spaces[name], blocks.elems, rule.points)
        gx.append((cols[:, s], cols[:, s], gram_blocks(wts, basis, _TRIAL_NORM[kind])))
    Bf = scatter_blocks([(rows, cols, blocks.B)], (ntest, ntrial))[tfree][:, ufree].toarray()
    GYf = scatter_blocks([(rows, rows, blocks.G)], (ntest, ntest))[tfree][:, tfree].toarray()
    GXf = scatter_blocks(gx, (ntrial, ntrial))[ufree][:, ufree].toarray()
    A = Bf.T @ np.linalg.solve(GYf, Bf)
    A = 0.5 * (A + A.T)
    lam = sla.eigh(A, GXf, eigvals_only=True)
    gamma = float(np.sqrt(max(lam[0], 0.0)))
    return InfSupResult(
        spec_id=spec_id, p=p, test_order=q, gamma=gamma, ntrial=len(ufree), ntest=len(tfree)
    )


def auxiliary_constants(mesh: Mesh, p: int):
    """Two discrete stability constants of the continuous analysis.

    C_P bounds the pair (u, omega) in L2 by the combination
    ||omega - grad u||: it is 1/sqrt(lambda_min) of the quotient
    minimized over H1-conforming u vanishing on Gamma0 and elementwise
    skew omega. C_B is the discrete inf-sup constant of
    (u, div tau) + (omega, tau) over the H(div) test norm.
    """
    uspace = h1_space(mesh, p, gamma0_constrained=True)
    wspace = l2_space(mesh, p - 1, "L2skew")
    tspace = hdiv_space(mesh, p + 1, gamma1_constrained=True)
    elems = np.arange(mesh.num_triangles)
    rule, wts, _ = element_quadrature(mesh, elems, 2 * (p + 2) + 2)
    ub = volume_basis(uspace, elems, rule.points)
    wb = volume_basis(wspace, elems, rule.points)
    tb = volume_basis(tspace, elems, rule.points)
    nu, nw = uspace.ndof, wspace.ndof
    n = nu + nw

    # columns of (omega - grad u) for the combined trial vector
    ud = uspace.elt_dofs
    wd = wspace.elt_dofs + nu
    ww = gram_blocks(wts, wb, "L2")
    cross = -_contract(wts, ub.grad, wb.val)
    A = scatter_blocks(
        [
            (ud, ud, _contract(wts, ub.grad, ub.grad)),
            (wd, wd, ww),
            (ud, wd, cross),
            (wd, ud, np.swapaxes(cross, 1, 2)),
        ],
        (n, n),
    )
    Mmass = scatter_blocks([(ud, ud, gram_blocks(wts, ub, "L2")), (wd, wd, ww)], (n, n))
    ufree = np.concatenate([_free(uspace), np.arange(nw) + nu])
    lam = sla.eigh(A[ufree][:, ufree].toarray(), Mmass[ufree][:, ufree].toarray(), eigvals_only=True)
    c_p = float(1.0 / np.sqrt(max(lam[0], 1e-300)))

    # divergence-pair inf-sup: trial (u, omega) in L2, test tau in H(div)
    u2 = l2_space(mesh, p - 1, "L2vec")
    u2b = volume_basis(u2, elems, rule.points)
    n2 = u2.ndof + wspace.ndof
    td = tspace.elt_dofs
    tfree = _free(tspace)
    Bf = scatter_blocks(
        [
            (td, u2.elt_dofs, _contract(wts, tb.div, u2b.val)),
            (td, wspace.elt_dofs + u2.ndof, _contract(wts, tb.val, wb.val)),
        ],
        (tspace.ndof, n2),
    )[tfree].toarray()
    GT = scatter_blocks([(td, td, gram_blocks(wts, tb, "Hdiv"))], (tspace.ndof, tspace.ndof))
    # both L2 trial spaces carry orthonormal bases, so their Gram is the identity
    A2 = Bf.T @ np.linalg.solve(GT[tfree][:, tfree].toarray(), Bf)
    A2 = 0.5 * (A2 + A2.T)
    lam2 = np.linalg.eigvalsh(A2)
    c_b = float(np.sqrt(max(lam2[0], 0.0)))
    return {"C_P": c_p, "C_B": c_b}


# ---------------------------------------------------------------------------
# jump screens


def jump_pairing_matrix(broken_space, trace_space):
    """Dense skeleton pairing of a broken space against the free dofs of
    a trace space: J[i, j] = <trace_i, element trace of broken_j>."""
    mesh = broken_space.mesh
    elems = np.arange(mesh.num_triangles)
    degree = 2 * (broken_space.order + trace_space.order) + 4
    pair = trace_pairing_blocks(broken_space, trace_space, make_skeleton(mesh), elems, degree)
    rows = trace_space.edge_dofs[mesh.tri_edges].reshape(len(elems), -1)
    shape = (trace_space.ndof, broken_space.ndof)
    J = scatter_blocks([(rows, broken_space.elt_dofs, np.swapaxes(pair, 1, 2))], shape)
    return J[_free(trace_space)].toarray()


def zero_jump_tests(mesh: Mesh, p: int, n_samples: int = 50, seed: int = 7):
    """Certify the skeleton pairings vanish exactly on conforming members.

    Random members of the conforming H1 (vanishing on Gamma0) and H(div)
    (zero normal trace on Gamma1) spaces are embedded into their broken
    counterparts and paired against every admissible trace dof; the
    largest pairing magnitude over all samples is reported, together
    with the smallest jump norm triggered by single-dof nonconforming
    perturbations.
    """
    rng = np.random.default_rng(seed)
    sk = make_skeleton(mesh)
    th12, thm12 = trace_spaces(sk, p + 1)

    results = {}
    conf_h1 = h1_space(mesh, p, gamma0_constrained=True)
    brok_h1 = broken_h1_space(mesh, p)
    J1 = jump_pairing_matrix(brok_h1, thm12)
    conf_hdiv = hdiv_space(mesh, p, gamma1_constrained=True)
    brok_hdiv = broken_hdiv_space(mesh, p)
    J2 = jump_pairing_matrix(brok_hdiv, th12)

    for label, conf, brok, J in (
        ("h1", conf_h1, brok_h1, J1),
        ("hdiv", conf_hdiv, brok_hdiv, J2),
    ):
        fwd = 0.0
        for _ in range(n_samples):
            x = rng.standard_normal(conf.ndof)
            x[conf.constrained_dofs] = 0.0
            xb = np.zeros(brok.ndof)
            xb[brok.elt_dofs] = x[conf.elt_dofs]
            fwd = max(fwd, np.abs(J @ xb).max() / max(np.linalg.norm(xb), 1e-30))
        # converse screen: perturb single broken dofs sitting on interior
        # edges and check the jump detector fires
        conv = np.inf
        for _ in range(n_samples):
            xb = np.zeros(brok.ndof)
            xb[rng.integers(brok.ndof)] = 1.0
            jn = np.abs(J @ xb).max()
            if jn > 1e-8:
                conv = min(conv, jn)
        results[label] = {"forward_max": float(fwd), "converse_min": float(conv)}
    return results
