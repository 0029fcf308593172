"""Minimum-residual solvers.

The workhorse path condenses the element-local blocks

    A_K = M_K^T G_K^{-1} M_K,   b_K = M_K^T G_K^{-1} l_K,
    M_K = [B_K | Bhat_K],

into a sparse SPD system, eliminates essential constraints
symmetrically, and solves with one sparse LU. M_K and
G_K are the same on every element of a geometry class (forms), so A_K is
formed once per class and only b_K per element: with W_M = L^{-1} M_K and
W_l = L^{-1} l_K, A_K = W_M^T W_M is symmetric by construction and
b_K = W_M^T W_l. A vector test slot's Gram is G1 kron I_2, L is one
Cholesky factor of G1 per class, and one forward substitution, batched
over the classes, takes both copies' rows of M_K and of the loads of all
the class's elements. The L2 field dofs belong to one element each: they
are eliminated from A_K before the scatter (static condensation; the
Schur complement once per class), only the interface system of
conforming fields and traces is factored, and they are recovered per
element after the solve.
The SPD free system is factored with a minimum-degree ordering on
A + A^T and diagonal pivots (SuperLU's symmetric mode); the indefinite
KKT and saddle-point systems keep partial pivoting. A mesh with no
Gamma0 edge leaves the rigid motions free, so its system is singular:
every solve checks that structurally before it assembles and raises
LinAlgError. So do an exactly zero pivot and a relative solve residual
above 1e-6. Each solve factors once, solves once and records its
residual, fill and factored size in extras["solver"]; the condensed
path adds the number of geometry classes and the range over classes of
a lower bound on the test Gram's condition number. The same solution
comes without condensation from the symmetric saddle-point system

    [ G  M ] [ psi ]   [ l ]
    [ M^T 0 ] [  x  ] = [ 0 ],

which also exposes the error representation function psi; it scatters M
by forms.scatter_blocks and G by forms.gram_matrix.

An L2 test slot whose broken test space contains the slot's residual
B(U_h) gives the exact L2 Riesz map, so the least-squares variants are
condensed solves with large enough test spaces: solve_fosls is the
Strong formulation with order-p L2 test spaces, and solve_hybrid_mixed
the Mixed formulation at dp=1. With conservative=True the hybrid solve
minimizes the same functional subject to int_K (div sigma_h + f) = 0 on
every element, solving the KKT system with one P0(K)^2 Lagrange
multiplier per element. A classical Galerkin primal solver, on the
blocks of the unbroken primal pair (forms.unbroken_formulation), is
included as a reference; its Gamma1 traction load evaluates g once per
distinct edge normal (spaces.edge_values). path_formulation builds the
formulation of each named path, for its solve and for load_solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .material import MaterialParams
from .mesh import Mesh, GAMMA0, GAMMA1
from .quadrature import edge_rule
from .spaces import edge_flips, edge_reference, edge_values
from .forms import (
    DESCRIPTORS,
    FORMULATION_IDS,
    Formulation,
    BCData,
    TrialLayout,
    formulation,
    unbroken_formulation,
    build_test_spaces,
    assemble_local_blocks,
    trial_layout,
    element_dofs,
    element_trial_dofs,
    free_ids,
    gram_matrix,
    scatter_blocks,
    element_momentum_integrals,
    CHUNK,
    ClassGroups,
    class_chunks,
)


@dataclass
class SolutionFields:
    """A computed solution: one coefficient vector per trial slot."""

    mesh: Mesh
    material: MaterialParams
    spec_name: str
    p: int
    dp: int
    spaces: dict
    coeffs: dict
    layout: TrialLayout
    form: Optional[Formulation] = None
    extras: dict = field(default_factory=dict)

    def full_vector(self):
        """Concatenate slot coefficients in the layout ordering."""
        return np.concatenate([self.coeffs[name] for name in self.layout.offsets])

    def num_free_dofs(self):
        return len(self.layout.free)


@dataclass
class GlobalSystem:
    """K (CSR, from one Schur complement per class) and rhs on the interface
    dofs `iface`. Per class, L L^T = A_ll and Y = L^{-1} A_li, and per element
    y_b = L^{-1} b_l, recover the local dofs `ldofs` (nelt, nl) from the
    interface columns `idofs` (nelt, ni) of K; `cls` is each element's class.
    gram_cond is the (min, max) of cholesky_cond_bound over class test Grams."""

    form: Formulation
    layout: object
    K: sp.csr_matrix
    rhs: np.ndarray
    iface: np.ndarray
    ldofs: np.ndarray
    idofs: np.ndarray
    cls: np.ndarray
    L: np.ndarray
    Y: np.ndarray
    yb: np.ndarray
    gram_cond: tuple


LOCAL_KINDS = ("L2sym", "L2vec", "L2skew")


def gram_cholesky(G):
    """Batched Cholesky factors L, G = L L^T, of element Gram matrices
    (nelt, n, n); a Gram matrix that is not SPD raises ValueError."""
    try:
        return np.linalg.cholesky(G)
    except np.linalg.LinAlgError as err:
        raise ValueError("element Gram matrix is not SPD") from err


def cholesky_cond_bound(L):
    """(max_i L_ii / min_i L_ii)^2 (nelt,) of Cholesky factors L (nelt, n, n):
    a lower bound on cond(L L^T), as each L_ii^2 is a pivot (a Schur
    complement of a leading block) and lies between its extreme eigenvalues."""
    d = np.diagonal(L, axis1=1, axis2=2)
    return (d.max(axis=1) / d.min(axis=1)) ** 2


def forward_substitution(L, X):
    """Y = L^{-1} X for lower-triangular L (nelt, n, n) and X (nelt, n, k),
    row by row, each row one batched product over all elements."""
    Y = np.array(X, dtype=float)
    for i in range(L.shape[1]):
        Y[:, i] -= (L[:, i, None, :i] @ Y[:, :i])[:, 0]
        Y[:, i] /= L[:, i, i, None]
    return Y


def backward_substitution(L, X):
    """Y = L^{-T} X for lower-triangular L (nelt, n, n) and X (nelt, n, k),
    row by row from the last, each row one batched product over all elements."""
    Y = np.array(X, dtype=float)
    for i in reversed(range(L.shape[1])):
        Y[:, i] -= (L[:, None, i + 1 :, i] @ Y[:, i + 1 :])[:, 0]
        Y[:, i] /= L[:, i, i, None]
    return Y


def condense_local(blocks, gram_cond=None):
    """Normal-equation blocks from (M, G, l), summed over the test slots of
    blocks.G: A (nclass, m, m) per class row of blocks.cls and b (nelt, m)
    per element.

    Per slot, with its one-copy Gram G1 = L L^T of a class, W_M = L^{-1} M
    and W_l = L^{-1} l_K (the rows c l + j of each copy j as more
    right-hand sides; the loads of a class's elements side by side,
    ClassGroups), A = W_M^T W_M and b_K = W_M^T W_l; a Gram matrix that is
    not SPD raises ValueError. A list gram_cond receives each slot's
    cholesky_cond_bound per class.
    """
    groups = ClassGroups(blocks.cls)
    W = []
    for name in blocks.G:
        s, c = blocks.test_slices[name], blocks.test_copies[name]
        L = gram_cholesky(blocks.G[name])
        if gram_cond is not None:
            gram_cond.append(cholesky_cond_bound(L))
        MB = np.concatenate([groups.take(blocks.M[:, s]), groups.pack(blocks.l[:, s, None])], axis=2)
        p, n, k = MB.shape
        W.append(forward_substitution(groups.take(L), MB.reshape(p, n // c, c * k)).reshape(p, n, k))
    W = np.concatenate(W, axis=1)
    m = blocks.M.shape[2]
    WM = groups.first(W[..., :m])
    return np.swapaxes(WM, 1, 2) @ WM, groups.unpack(np.swapaxes(W[..., :m], 1, 2) @ W[..., m:])[..., 0]


def assemble_normal_equations(form: Formulation, chunk: int = CHUNK) -> GlobalSystem:
    """Condensed normal equations of a broken formulation on its interface dofs.

    The columns of the L2 field slots (LOCAL_KINDS) belong to one element
    each and are eliminated there: per geometry class, with A_ll = L L^T and
    Y_i = L^{-1} A_li, the Schur complement S = A_ii - Y_i^T Y_i, exactly
    symmetric, is kept once and scattered for all its elements; per element,
    y_b = L^{-1} b_l and s = b_i - Y_i^T y_b. Work runs over chunks of
    whole classes (class_chunks).
    """
    layout = trial_layout(form)
    nelt = form.mesh.num_triangles
    gdofs = element_trial_dofs(form, layout, np.arange(nelt))  # (nelt, nloc)
    slots = form.desc.field_slots
    local = np.repeat([k in LOCAL_KINDS for _, k in slots], [form.field_spaces[n].nloc for n, _ in slots])
    li, ii = np.flatnonzero(local), np.flatnonzero(np.r_[~local, np.ones(gdofs.shape[1] - len(local), bool)])  # traces kept
    keep = np.ones(layout.ndof, bool)
    keep[gdofs[:, li]] = False
    inum = np.cumsum(keep) - 1  # interface numbering of the kept dofs
    idofs = inum[gdofs[:, ii]]
    cls = form.classes
    ncls = cls.max() + 1
    S = np.empty((ncls, len(ii), len(ii)))  # each class's Schur complement
    L = np.empty((ncls, len(li), len(li)))
    Y = np.empty((ncls, len(li), len(ii)))
    yb = np.empty((nelt, len(li)))
    s = np.empty((nelt, len(ii)))
    gram_cond = []
    for elems in class_chunks(cls, chunk):
        blocks = assemble_local_blocks(form, elems)
        A, b = condense_local(blocks, gram_cond)
        c, groups = cls[blocks.reps], ClassGroups(blocks.cls)
        L[c] = Lc = gram_cholesky(A[:, li[:, None], li])
        X = np.concatenate([groups.take(A[:, li[:, None], ii]), groups.pack(b[:, li, None])], axis=2)
        W = forward_substitution(groups.take(Lc), X)
        Yp, yp = W[..., : len(ii)], W[..., len(ii) :]
        Y[c] = Yi = groups.first(Yp)
        S[c] = A[:, ii[:, None], ii] - np.swapaxes(Yi, 1, 2) @ Yi
        yb[elems] = groups.unpack(yp)[..., 0]
        s[elems] = b[:, ii] - groups.unpack(np.swapaxes(Yp, 1, 2) @ yp)[..., 0]
    rhs = np.zeros(int(keep.sum()))
    np.add.at(rhs, idofs.ravel(), s.ravel())
    K = scatter_blocks([(idofs, idofs, S, cls)], (len(rhs), len(rhs)))
    bounds = np.concatenate(gram_cond)
    return GlobalSystem(
        form, layout, K, rhs, np.flatnonzero(keep), gdofs[:, li], idofs, cls, L, Y, yb, (bounds.min(), bounds.max())
    )


# minimum-degree ordering on A + A^T with diagonal pivots, for symmetric
# quasi-definite systems: the SPD interface systems and the inf-sup saddle
# matrix (infsup_lab._min_infsup_eig). relax=1 turns off SuperLU's relaxed
# supernodes: padding small subtrees into dense supernodes stores zeros,
# and on the condensed interface systems it costs more than it saves
# (n=32 ultraweak p=2: L+U 3.70M -> 2.65M entries, gstrf about half the time).
_QUASIDEFINITE_LU = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, relax=1, options={"SymmetricMode": True})


def _solve_constrained(K, rhs, constrained, values, C=None, d=None):
    """Symmetric elimination of essential constraints, then sparse solve.

    Returns the full solution vector and a record of the solve: the
    relative residual, the free-dof count, the size of the factored system
    and the LU fill (_factor_solve).

    With linear constraint rows C x = d the free system is the
    symmetric indefinite KKT system

        [ K_ff  C_f^T ] [ x_f    ]   [ rhs_f ]
        [ C_f   0     ] [ lambda ] = [ d_f   ],

    with the essential values eliminated into both right-hand sides, and
    it is factored with partial pivoting.
    """
    n = K.shape[0]
    free = free_ids(n, constrained)
    x = np.zeros(n)
    x[constrained] = values
    info = {"residual": 0.0, "free_dofs": len(free), "factored_dofs": 0, "lu_nnz": None}
    if len(free) == 0:
        return x, info
    Kf = K[free][:, free].tocsc()
    # x holds the values on the constrained dofs and zeros elsewhere
    rhs_f = (rhs - K @ x)[free] if len(constrained) else rhs[free]
    what, lu_options = "SPD system", _QUASIDEFINITE_LU
    if C is not None:
        Cf = C[:, free]
        d_f = d - C[:, constrained] @ values if len(constrained) else d
        Kf = sp.bmat([[Kf, Cf.T], [Cf, None]], format="csc")
        rhs_f = np.concatenate([rhs_f, d_f])
        what, lu_options = "KKT system", {}
    sol, record = _factor_solve(Kf, rhs_f, what, **lu_options)
    info.update(record)
    x[free] = sol[: len(free)]
    return x, info


def _require_gamma0(mesh: Mesh):
    """Raise LinAlgError on a mesh with no Gamma0 edge: nothing then fixes
    the rigid motions, which lie in the kernel of every formulation."""
    if GAMMA0 not in mesh.boundary_tags.values():
        raise np.linalg.LinAlgError("the system is singular: the mesh has no Gamma0 edge to fix the rigid motions")


def _factor_checked(A, what, **lu_options):
    """Sparse LU of A; SuperLU's RuntimeError on an exactly zero pivot
    becomes LinAlgError."""
    try:
        return spla.splu(A, **lu_options)
    except RuntimeError as err:
        raise np.linalg.LinAlgError(f"{what} is singular: {err}") from err


def _factor_solve(A, b, what, **lu_options):
    """Solve A x = b by one sparse LU and one solve with it; return x and the
    record of the solve: the relative residual, the factored size and the
    LU fill. A relative residual above 1e-6 raises LinAlgError."""
    lu = _factor_checked(A, what, **lu_options)
    x = lu.solve(b)
    residual = float(np.linalg.norm(A @ x - b) / max(np.linalg.norm(b), 1e-30))
    if residual > 1e-6:
        raise np.linalg.LinAlgError(f"{what} solve left a relative residual of {residual:.1e}")
    return x, {"residual": residual, "factored_dofs": A.shape[0], "lu_nnz": lu.nnz}


def _fields_from_vector(form: Formulation, layout, x, extras=None) -> SolutionFields:
    spaces = form.trial_spaces
    coeffs = {name: x[off : off + spaces[name].ndof].copy() for name, off in layout.offsets.items()}
    return SolutionFields(
        mesh=form.mesh,
        material=form.material,
        spec_name=form.id,
        p=form.p,
        dp=form.dp,
        spaces=spaces,
        coeffs=coeffs,
        form=form,
        layout=layout,
        extras=extras or {},
    )


def assemble_and_solve(form: Formulation, C=None, d=None) -> SolutionFields:
    """Solve the condensed normal equations of a broken formulation on its
    interface dofs, then recover the element-local dofs
    x_l = L^{-T} (y_b - Y_i x_i) element by element.

    Constraint rows C x = d (C sparse on the trial dofs) are imposed on the
    interface system through Lagrange multipliers; a row with a nonzero on
    an eliminated element-local column raises ValueError.
    """
    _require_gamma0(form.mesh)
    system = assemble_normal_equations(form)
    layout = system.layout
    if C is not None:
        if abs(C[:, system.ldofs.ravel()]).sum():
            raise ValueError("constraint rows touch element-local dofs, which are eliminated before the solve")
        C = C[:, system.iface]
    xi, info = _solve_constrained(system.K, system.rhs, np.searchsorted(system.iface, layout.constrained), layout.values, C, d)
    x = np.zeros(layout.ndof)
    x[system.iface] = xi
    groups = ClassGroups(system.cls)
    yp = groups.pack(system.yb[..., None]) - groups.take(system.Y) @ groups.pack(xi[system.idofs][..., None])
    x[system.ldofs] = groups.unpack(backward_substitution(groups.take(system.L), yp))[..., 0]
    info["geometry_classes"] = len(system.L)
    info["gram_cond_min"], info["gram_cond_max"] = map(float, system.gram_cond)
    info["free_dofs"] = len(layout.free)
    return _fields_from_vector(form, layout, x, extras={"solver": info})


SOLVE_PATHS = FORMULATION_IDS + ("fosls", "hybrid_mixed", "hybrid_mixed_conservative", "galerkin")


def path_formulation(name, mesh, material, p, dp=1, bc: Optional[BCData] = None) -> Formulation:
    """The formulation a named solve path (SOLVE_PATHS) solves: a broken
    formulation at (p, dp), or that of solve_fosls (Strong at dp=0 with
    order-p L2 test spaces), solve_hybrid_mixed (either path) or
    solve_galerkin_primal."""
    if name == "fosls":
        form = formulation("strong", mesh, material, p, dp=0, bc=bc)
        return replace(form, test_spaces=build_test_spaces(form.desc, mesh, p, 1))
    if name in ("hybrid_mixed", "hybrid_mixed_conservative"):
        return formulation("mixed", mesh, material, p, dp=1, bc=bc)
    if name == "galerkin":
        return unbroken_formulation(DESCRIPTORS["primal"], mesh, material, p, p, bc)
    return formulation(name, mesh, material, p, dp=dp, bc=bc)


def solve_dpg(spec_id, mesh, material, p, dp=1, bc: Optional[BCData] = None) -> SolutionFields:
    """Convenience wrapper: build the formulation and solve it."""
    return assemble_and_solve(formulation(spec_id, mesh, material, p, dp=dp, bc=bc))


# ---------------------------------------------------------------------------
# saddle-point variant


def solve_saddle_point(form: Formulation) -> SolutionFields:
    """Solve the uncondensed symmetric system; extras carry psi.

    psi is the discrete error representation function in the enriched
    broken test space, stored elementwise as (nelt, ntest_loc). The
    indefinite system is factored with partial pivoting; a mesh with no
    Gamma0 edge raises LinAlgError. extras["solver"] records the solve as
    for the condensed path.
    """
    _require_gamma0(form.mesh)
    layout = trial_layout(form)
    elems = np.arange(form.mesh.num_triangles)
    blocks = assemble_local_blocks(form, elems)
    nelt, ntest = blocks.l.shape
    npsi, free = nelt * ntest, layout.free
    psi_dofs = np.arange(npsi).reshape(nelt, ntest)
    Bg = scatter_blocks([(psi_dofs, element_trial_dofs(form, layout, elems), blocks.M, blocks.cls)], (npsi, layout.ndof))
    G = gram_matrix(psi_dofs, blocks.test_slices, blocks.G, blocks.test_copies, blocks.cls, npsi)
    Bf = Bg[:, free]
    top = blocks.l.ravel() - Bg[:, layout.constrained] @ layout.values
    Kfull = sp.bmat([[G, Bf], [Bf.T, None]], format="csc")
    rhs = np.concatenate([top, np.zeros(len(free))])
    sol, info = _factor_solve(Kfull, rhs, "saddle-point system")
    info["free_dofs"] = len(free)
    psi = sol[:npsi].reshape(nelt, ntest)
    x = np.zeros(layout.ndof)
    x[layout.constrained] = layout.values
    x[free] = sol[npsi:]
    return _fields_from_vector(form, layout, x, extras={"psi": psi, "solver": info})


# ---------------------------------------------------------------------------
# least-squares paths: condensed solves with exact-L2 test spaces


def solve_fosls(mesh, material, p, bc: Optional[BCData] = None) -> SolutionFields:
    """First-order-system least squares: the Strong formulation with the
    exact L2 Riesz map. Its order-p L2 test spaces hold sigma_h - C grad u_h,
    div sigma_h and skew sigma_h; dp=0 keeps the 2p+2 quadrature rule."""
    return replace(assemble_and_solve(path_formulation("fosls", mesh, material, p, bc=bc)), spec_name="fosls")


def _momentum_constraints(form: Formulation):
    """Rows C and values d of the elementwise momentum balance
    int_K (div sigma_h + f) . e_c = 0, rows 2K and 2K+1 for element K."""
    space = form.field_spaces["sigma"]
    layout = trial_layout(form)
    elems = np.arange(form.mesh.num_triangles)
    div_int, f_int, _ = element_momentum_integrals(space, form.bc, elems)  # (nelt, nloc, 2), (nelt, 2)
    rows = 2 * elems[:, None] + np.arange(2)
    cols = element_dofs({"sigma": space}, layout, elems)
    C = scatter_blocks([(rows, cols, np.swapaxes(div_int, 1, 2))], (2 * len(elems), layout.ndof))
    C.eliminate_zeros()
    return C, -f_int.ravel()


def solve_hybrid_mixed(mesh, material, p, bc: Optional[BCData] = None, *, conservative: bool = False) -> SolutionFields:
    """The Mixed formulation at dp=1: its order-p L2 test spaces hold
    div sigma_h and skew sigma_h, so the discontinuous test slots use the
    exact L2 Riesz map.

    By default this is solve_dpg("mixed"). Its stationarity couples the
    momentum residual with the constitutive and symmetry residuals, so
    momentum is not balanced elementwise. With conservative=True the same
    functional is minimized subject to int_K (div sigma_h + f) = 0 on
    every element K, through one Lagrange multiplier in P0(K)^2 per
    element (Ellis, Demkowicz, Chan, Moser, CAMWA 68, 2014); the
    multipliers are not returned, and the solve path is named
    hybrid_mixed_conservative.
    """
    name = "hybrid_mixed_conservative" if conservative else "hybrid_mixed"
    form = path_formulation(name, mesh, material, p, bc=bc)
    C, d = _momentum_constraints(form) if conservative else (None, None)
    return replace(assemble_and_solve(form, C, d), spec_name=name)


# ---------------------------------------------------------------------------
# classical Galerkin reference


def solve_galerkin_primal(mesh, material, p, bc: Optional[BCData] = None) -> SolutionFields:
    """Standard conforming Galerkin method for the primal problem:
    (C grad u, grad v) = (f, v) + (g, v)_Gamma1 on H1 with the
    displacement boundary eliminated: K and the body-force load are the
    element blocks M and l of the unbroken primal pair at test order p,
    whose test space is the trial space."""
    _require_gamma0(mesh)
    form = path_formulation("galerkin", mesh, material, p, bc=bc)
    bc, space = form.bc, form.field_spaces["u"]
    blocks = assemble_local_blocks(form)
    n = space.ndof
    K = scatter_blocks([(space.elt_dofs, space.elt_dofs, blocks.M, blocks.cls)], (n, n))
    rhs = np.zeros(n)
    np.add.at(rhs, space.elt_dofs.ravel(), blocks.l.ravel())
    # traction load on Gamma1: each edge's basis traces on its first element
    if bc.g is not None:
        tq, twq = edge_rule(2 * p + 6)
        g1 = mesh.boundary_edge_ids(GAMMA1)
        t0 = mesh.edge_tris[g1, 0]
        loc = np.argmax(mesh.tri_edges[t0] == g1[:, None], axis=1)
        ev = edge_reference("H1", p, tq)[loc, edge_flips(mesh, t0)[np.arange(len(g1)), loc]]  # (ne, nloc, nq, 2)
        load = mesh.skeleton.lengths[g1, None] * np.einsum("q,eqc,elqc->el", twq, edge_values(mesh, g1, tq, bc.g), ev)
        np.add.at(rhs, space.elt_dofs[t0].ravel(), load.ravel())
    layout = trial_layout(form)
    x, info = _solve_constrained(K, rhs, layout.constrained, layout.values)
    return replace(_fields_from_vector(form, layout, x, {"solver": info}), spec_name="galerkin", form=None)
