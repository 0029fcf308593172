"""Discrete inf-sup diagnostics on unbroken conforming pairs.

Each pair is a descriptor built by forms.unbroken_formulation: the trial
slots keep their usual conforming spaces and constraints, the broken
test slots are replaced by their conforming counterparts, and the
skeleton terms drop (they vanish identically for conforming test
functions). The discrete inf-sup constant is then

    gamma_h^2 = min eig of  B^T G_Y^{-1} B  x = gamma^2 G_X x,

with G_Y the test-norm Gram and G_X the Gram of the descriptor's trial
norms. Test and trial slots are numbered by forms.slot_layout and
forms.element_dofs; B is scattered by forms.scatter_blocks, then G_Y and
G_X by forms.gram_matrix, and each of the three is restricted to the free
dofs once built, B before G_Y is scattered. The smallest eigenvalue comes
from ARPACK in shift-invert mode; B^T G_Y^{-1} B is never formed, its shifted inverse
is applied through one sparse LU of the saddle matrix
[[G_Y, B], [B^T, sigma G_X]]. With sigma < 0 that matrix is symmetric
quasi-definite, so it has an LDL^T factorization for every symmetric
ordering (Vanderbei, SIAM J. Optim. 5, 1995) and is factored with
diagonal pivots on a minimum-degree ordering of A + A^T, like the SPD
systems of the solvers. Its growth factor is bounded only by about
||B||^2 / |sigma| (Gill, Saunders & Shinnerl, SIAM J. Matrix Anal. Appl.
17, 1996), which leaves the shift-invert eigenvalue up to about 1e-9
off on the p=1 table. The eigenvalue is therefore taken as a Rayleigh
quotient at ARPACK's eigenvector, whose error is quadratic in the
eigenvector's. A degenerate regime with the displacement boundary
removed exposes the rigid-body kernel.

The two auxiliary stability constants of the continuous analysis are
the inf-sup constants of two more pairs (POINCARE, DIVERGENCE) on
discrete subspaces. The module also runs the jump screens that certify
the skeleton pairings annihilate exactly the conforming members of the
broken spaces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .dpg_solver import _QUASIDEFINITE_LU, _factor_checked
from .mesh import Mesh
from .spaces import h1_space, hdiv_space, broken_h1_space, broken_hdiv_space, trace_spaces, embed_in_broken, row_copies
from .forms import (
    DESCRIPTORS, FormulationDescriptor, Term, assemble_local_blocks, element_dofs, gram_blocks, gram_matrix,
    scatter_blocks, slot_layout, trace_pairing_blocks, unbroken_formulation,
)

# Default test-order bump over the trial order. The nonsymmetric pairs
# use p+1 as a stand-in for the infinite test space; the mixed pair also
# needs the bump because the equal-order unbroken pairing develops an
# exact spurious kernel on uniformly refined diagonal meshes (observed
# at the third refinement level for p = 1 and 2).
TEST_ORDER_BUMP = {"strong": 1, "ultraweak": 1, "dualmixed": 0, "mixed": 1, "primal": 0}

# Shift of the shift-invert eigensolves: just below zero, so the shifted
# operators stay nonsingular when the smallest eigenvalue is 0.
SHIFT = -1e-6

# The pairs of the auxiliary constants, with no load. At test order p the
# order-(p-1) L2 test slots of POINCARE hold omega - grad u, so its inf-sup
# constant is 1/C_P; DIVERGENCE pairs L2 (u, omega) with an H(div) tau.
POINCARE = FormulationDescriptor(
    id="C_P",
    field_slots=(("u", "H1"), ("omega", "L2skew")),
    trace_slots=(),
    test_slots=(("tau", "L2sym"), ("w", "L2skew")),
    terms=(
        Term("tau", "val", "u", "grad", -1.0),
        Term("w", "val", "u", "grad", -1.0),
        Term("w", "val", "omega", "val", 1.0),
    ),
    trace_terms=(),
    test_norms={"tau": "L2", "w": "L2"},
    trial_norms={"u": "L2", "omega": "L2"},
)
DIVERGENCE = FormulationDescriptor(
    id="C_B",
    field_slots=(("u", "L2vec"), ("omega", "L2skew")),
    trace_slots=(),
    test_slots=(("tau", "BrokenHdiv"),),
    terms=(Term("tau", "div", "u", "val", 1.0), Term("tau", "val", "omega", "val", 1.0)),
    trace_terms=(),
    test_norms={"tau": "Hdiv"},
    trial_norms={"u": "L2", "omega": "L2"},
)


@dataclass
class InfSupResult:
    spec_id: str
    p: int
    test_order: int
    gamma: float
    ntrial: int
    ntest: int


def _infsup_operators(desc: FormulationDescriptor, mesh: Mesh, material, p: int, q: int, gamma0_empty: bool = False):
    """Free-by-free sparse B, G_Y and G_X of the unbroken pair of a
    descriptor with test order q (forms.unbroken_formulation): B and G_Y
    from its element assembly, G_X the Gram of its trial norms, all
    numbered by forms.slot_layout."""
    form = unbroken_formulation(desc, mesh, material, p, q, gamma0=not gamma0_empty)
    test, trial = slot_layout(form.test_spaces), slot_layout(form.field_spaces)
    if len(trial.free) == 0 or len(test.free) == 0:
        raise ValueError(f"{desc.id}: no unconstrained dofs left on this mesh, refine first")
    degree = 2 * (max(p, q) + 1) + 2
    blocks = assemble_local_blocks(form, quad_degree=degree)
    rows, cols = element_dofs(form.test_spaces, test, blocks.elems), element_dofs(form.field_spaces, trial, blocks.elems)
    B = scatter_blocks([(rows, cols, blocks.M, blocks.cls)], (test.ndof, trial.ndof))[test.free][:, trial.free]  # cut down before G_Y is scattered
    GY = gram_matrix(rows, blocks.test_slices, blocks.G, blocks.test_copies, blocks.cls, test.ndof)[test.free][:, test.free]
    G1 = {n: gram_blocks(s, blocks.reps, degree, desc.trial_norms[n]) for n, s in form.field_spaces.items()}
    copies = {n: row_copies(s) for n, s in form.field_spaces.items()}
    GX = gram_matrix(cols, blocks.trial_slices, G1, copies, blocks.cls, trial.ndof)[trial.free][:, trial.free]
    return B, GY, GX


def _min_infsup_eig(B, GY, GX) -> float:
    """Smallest eigenvalue of B^T G_Y^{-1} B x = lambda G_X x, by shift-invert.

    With S = B^T G_Y^{-1} B, [[G_Y, B], [B^T, sigma G_X]] [z; w] = [0; y]
    gives w = -(S - sigma G_X)^{-1} y, so one LU of that saddle matrix
    serves every ARPACK iteration. The matrix is symmetric quasi-definite
    (SHIFT < 0), so the LU takes diagonal pivots in a symmetric
    minimum-degree order, with far less fill than threshold pivoting;
    its solves are then only about 1e-9 accurate. lambda is therefore the
    Rayleigh quotient of (S - sigma G_X)^{-1} G_X in the G_X inner product
    at ARPACK's eigenvector x: with g = G_X x and [z; w] the solve for
    [0; g] after one step of iterative refinement, lambda = sigma -
    x^T g / g^T w. Its error is quadratic in the error of x, and the
    refinement takes the solve's drift out of g^T w.
    """
    m, n = B.shape
    A = sp.bmat([[GY, B], [B.T, SHIFT * GX]], format="csc")
    lu = _factor_checked(A, "inf-sup saddle matrix", **_QUASIDEFINITE_LU)
    inv = spla.LinearOperator((n, n), matvec=lambda y: -lu.solve(np.r_[np.zeros(m), y.ravel()])[m:], dtype=float)
    # shift-invert mode applies only OPinv and M, never its first argument
    _, X = spla.eigsh(inv, k=1, M=GX, sigma=SHIFT, OPinv=inv, which="LM", v0=np.ones(n))
    x = X[:, 0]
    g = GX @ x
    rhs = np.r_[np.zeros(m), g]
    zw = lu.solve(rhs)
    zw += lu.solve(rhs - A @ zw)
    return float(SHIFT - (x @ g) / (g @ zw[m:]))


def discrete_infsup(spec_id, mesh: Mesh, material, p: int, gamma0_empty: bool = False, test_order=None) -> InfSupResult:
    """Discrete inf-sup constant of the unbroken conforming pair."""
    q = test_order if test_order is not None else p + TEST_ORDER_BUMP[spec_id]
    B, GY, GX = _infsup_operators(DESCRIPTORS[spec_id], mesh, material, p, q, gamma0_empty)
    gamma = float(np.sqrt(max(_min_infsup_eig(B, GY, GX), 0.0)))
    return InfSupResult(spec_id=spec_id, p=p, test_order=q, gamma=gamma, ntrial=B.shape[1], ntest=B.shape[0])


def auxiliary_constants(mesh: Mesh, p: int):
    """Two discrete stability constants of the continuous analysis.

    C_P bounds the pair (u, omega) in L2 by the combination
    ||omega - grad u||, over H1-conforming u vanishing on Gamma0 and
    elementwise skew omega: 1/gamma of POINCARE at test order p. C_B is
    the discrete inf-sup constant of (u, div tau) + (omega, tau) over the
    H(div) test norm: gamma of DIVERGENCE at test order p + 1.
    """
    lam_p = _min_infsup_eig(*_infsup_operators(POINCARE, mesh, None, p, p))
    lam_b = _min_infsup_eig(*_infsup_operators(DIVERGENCE, mesh, None, p, p + 1))
    return {"C_P": float(1.0 / np.sqrt(max(lam_p, 1e-300))), "C_B": float(np.sqrt(max(lam_b, 0.0)))}


# ---------------------------------------------------------------------------
# jump screens


def jump_pairing_matrix(broken_space, trace_space):
    """Sparse (CSR) skeleton pairing of a broken space against the free
    dofs of a trace space: J[i, j] = <trace_i, element trace of broken_j>."""
    elems = np.arange(broken_space.mesh.num_triangles)
    degree = 2 * (broken_space.order + trace_space.order) + 4
    pair = trace_pairing_blocks(broken_space, trace_space, elems, degree)
    layout = slot_layout({"trace": trace_space})
    rows = element_dofs({"trace": trace_space}, layout, elems)
    J = scatter_blocks([(rows, broken_space.elt_dofs, np.swapaxes(pair, 1, 2))], (layout.ndof, broken_space.ndof))
    return J[layout.free]


def zero_jump_tests(mesh: Mesh, p: int, n_samples: int = 50, seed: int = 7):
    """Certify the skeleton pairings vanish exactly on conforming members.

    Random members of the conforming H1 (vanishing on Gamma0) and H(div)
    (zero normal trace on Gamma1) spaces are embedded into their broken
    counterparts and paired against every admissible trace dof; the
    largest pairing magnitude over all samples is reported, together
    with the smallest jump triggered by single-dof nonconforming
    perturbations, relative to the norm of the perturbed basis function.
    """
    rng = np.random.default_rng(seed)
    th12, thm12 = trace_spaces(mesh, p + 1)
    elems = np.arange(mesh.num_triangles)
    results = {}
    for label, conf, brok, trace, norm in (
        ("h1", h1_space(mesh, p, gamma0_constrained=True), broken_h1_space(mesh, p), thm12, "H1"),
        ("hdiv", hdiv_space(mesh, p), broken_hdiv_space(mesh, p), th12, "Hdiv"),
    ):
        J = jump_pairing_matrix(brok, trace)
        bnorm = np.empty(brok.ndof)  # sqrt(G_ii): the norm of each broken basis function
        diag = np.diagonal(gram_blocks(brok, elems, 2 * p + 2, norm), axis1=1, axis2=2)
        bnorm[brok.elt_dofs] = np.sqrt(np.repeat(diag, row_copies(brok), axis=1))
        fwd = 0.0
        for _ in range(n_samples):
            x = rng.standard_normal(conf.ndof)
            x[conf.constrained_dofs] = 0.0
            xb = embed_in_broken(conf, brok, x)
            fwd = max(fwd, np.abs(J @ xb).max() / max(np.linalg.norm(xb), 1e-30))
        # converse screen: perturb single broken dofs sitting on interior
        # edges and check the jump detector fires, relative to the norm of
        # the perturbed basis function so that the basis scaling drops out
        conv = np.inf
        for _ in range(n_samples):
            i = rng.integers(brok.ndof)
            xb = np.zeros(brok.ndof)
            xb[i] = 1.0
            jn = np.abs(J @ xb).max()
            if jn > 1e-8:
                conv = min(conv, jn / bnorm[i])
        results[label] = {"forward_max": float(fwd), "converse_min": float(conv)}
    return results
