"""Residual evaluation and adaptive refinement.

The minimum-residual framework comes with a built-in error estimator:
the discrete dual norm of the element residual r_K = M_K x_K - l_K, with
M_K = [B_K | Bhat_K] acting on the field and trace unknowns together,

    eta_K^2 = r_K^T G_K^{-1} r_K,

evaluated in an enriched broken test space of fixed order p_res
(Demkowicz, Gopalakrishnan, Niemi, Appl. Numer. Math. 62, 2012). M, G
and l are the solve's element blocks (forms.assemble_local_blocks) of its
formulation restricted to its Gram-inverted (broken H1 and H(div)) test
slots, at order p_res: M and G once per geometry class of the solve, l
per element. For each such slot, r_K is formed from the class
blocks and the element's coefficients of the solve, then one forward
substitution per class with the Cholesky factor L of the slot's one-copy
Gram G1 (the Gram is G1 kron I_c), with both copies of the residuals of
all its elements as right-hand sides, gives L^{-1} r_K, whose squared
norm is eta_K^2. M x and l cancel before the substitution: substituting
them apart and subtracting after lets a one-ulp change of G move eta_K
by more. Test slots identified with L2 need no Gram inversion: their
residual is the pointwise function sum sign * project(op(u_h)) - f,
integrated exactly, which avoids the projection onto a finite modal
basis altogether.

Marking uses a simple maximum strategy and refinement is
newest-vertex bisection, so the adaptive loop is
solve -> estimate -> mark -> refine.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .mesh import Mesh, refine
from .spaces import field_values
from .forms import (
    formulation,
    build_test_spaces,
    assemble_local_blocks,
    element_trial_dofs,
    element_quadrature,
    trial_term_values,
    project_to_kind,
    element_momentum_integrals,
    MOMENTUM_QUAD_DEGREE,
    ClassGroups,
    class_chunks,
)
from .dpg_solver import SolutionFields, assemble_and_solve, gram_cholesky, forward_substitution

P_RES = 4


@dataclass
class ResidualReport:
    """Elementwise residual contributions eta_K and their total."""

    eta: np.ndarray  # (nelt,)
    p_res: int

    @property
    def total(self) -> float:
        return float(np.sqrt(np.sum(self.eta**2)))


def element_residuals(fields: SolutionFields, p_res: Optional[int] = None) -> ResidualReport:
    """Per-element residual dual norms of a computed solution.

    The solve's own trial spaces and coefficients are used; only the test
    spaces are built, at the enriched order p_res, which may not lie below
    the trial order p; by default max(P_RES, p + 1).
    """
    form = fields.form
    if form is None:
        raise ValueError("residuals need the broken formulation the solution came from")
    if p_res is None:
        p_res = max(P_RES, form.p + 1)
    if p_res < form.p:
        raise ValueError(f"residual test order p_res={p_res} lies below the trial order p={form.p}")
    desc = form.desc
    inverted = [n for n, _ in desc.test_slots if desc.test_norms[n] != "L2"]
    pointwise = [(n, k) for n, k in desc.test_slots if desc.test_norms[n] == "L2"]
    if inverted:  # the formulation restricted to these test slots, at order p_res
        sub = replace(
            desc,
            test_slots=tuple(s for s in desc.test_slots if s[0] in inverted),
            terms=tuple(t for t in desc.terms if t.test in inverted),
            trace_terms=tuple(t for t in desc.trace_terms if t.test in inverted),
            test_norms={n: desc.test_norms[n] for n in inverted},
            load_slot=desc.load_slot if desc.load_slot in inverted else None,
        )
        dp_res = p_res - form.p
        form_res = replace(form, desc=sub, dp=dp_res, test_spaces=build_test_spaces(sub, form.mesh, form.p, dp_res))
    x = fields.full_vector()
    eta2 = np.zeros(form.mesh.num_triangles)
    for elems in class_chunks(form.classes):
        if inverted:
            xloc = x[element_trial_dofs(form_res, fields.layout, elems)]
            eta2[elems] += _dual_norms_sq(assemble_local_blocks(form_res, elems), xloc, inverted)
        if pointwise:
            eta2[elems] += _pointwise_norms_sq(fields, pointwise, elems, max(2 * p_res + 2, 16))
    return ResidualReport(eta=np.sqrt(eta2), p_res=p_res)


def _dual_norms_sq(blocks, xloc, slots):
    """sum over the Gram-inverted test slots of r_K^T G_K^{-1} r_K: per slot,
    r_K = M x_K - l_K on the class blocks, then L^{-1} r_K with the rows
    c l + j of each copy j as more right-hand sides (condense_local)."""
    groups = ClassGroups(blocks.cls)
    X = groups.pack(xloc[..., None])
    out = np.zeros(len(blocks.elems))
    for n in slots:
        s, c = blocks.test_slices[n], blocks.test_copies[n]
        r = groups.take(blocks.M[:, s]) @ X - groups.pack(blocks.l[:, s, None])
        p, m, g = r.shape
        W = forward_substitution(groups.take(gram_cholesky(blocks.G[n])), r.reshape(p, m // c, c * g))
        out += groups.unpack(np.sum((W * W).reshape(p, m, g), axis=1, keepdims=True))[:, 0, 0]
    return out


def _pointwise_norms_sq(fields, slots, elems, degree):
    """sum over the L2-identified test slots of the squared L2 norm of the
    pointwise residual sum sign * project(op(u_h)) - f on each element."""
    form = fields.form
    desc = form.desc
    rule, wts, pts = element_quadrature(form.mesh.geometry, elems, degree)
    names = {n for n, _ in slots}
    terms = [t for t in desc.terms if t.test in names]
    trials = dict.fromkeys(t.trial for t in terms)
    uh = {n: field_values(fields.spaces[n], fields.coeffs[n], elems, rule.points) for n in trials}
    out = np.zeros(len(elems))
    for name, kind in slots:
        R = sum(
            t.sign * project_to_kind(trial_term_values(t, uh, form.material), kind) for t in terms if t.test == name
        )
        if name == desc.load_slot:
            R = R - form.bc.body_force(pts)
        R = R.reshape(R.shape[:2] + (-1,))
        out += np.einsum("eq,eqk,eqk->e", wts, R, R, optimize=True)
    return out


def mark(report: ResidualReport, theta: float = 0.5):
    """Maximum-strategy marking: elements with eta_K > theta * max eta."""
    if not 0.0 <= theta < 1.0:
        raise ValueError(f"marking fraction must lie in [0, 1), got {theta}")
    cut = theta * report.eta.max()
    marked = np.nonzero(report.eta > cut)[0]
    if len(marked) == 0:
        marked = np.array([int(np.argmax(report.eta))])
    return marked


@dataclass
class AdaptiveStep:
    mesh: Mesh
    fields: SolutionFields
    report: ResidualReport
    ndofs: int


def adaptive_loop(
    spec_id: str,
    mesh: Mesh,
    material,
    p: int,
    bc,
    steps: int,
    dp: int = 1,
    p_res: Optional[int] = None,
    theta: float = 0.5,
) -> list:
    """Run solve / estimate / mark / refine for a number of steps.

    Returns one AdaptiveStep per solve; the mesh of step k+1 is the
    refinement of the mesh of step k. p_res defaults as in element_residuals.
    """
    history = []
    for step in range(steps):
        form = formulation(spec_id, mesh, material, p, dp=dp, bc=bc)
        fields = assemble_and_solve(form)
        report = element_residuals(fields, p_res=p_res)
        history.append(
            AdaptiveStep(mesh=mesh, fields=fields, report=report, ndofs=fields.num_free_dofs())
        )
        if step < steps - 1:
            mesh = refine(mesh, mark(report, theta))
    return history


def local_conservation_defect(fields: SolutionFields, quad_degree: int = MOMENTUM_QUAD_DEGREE):
    """Elementwise conservation defects |int_K (div sigma_h + f)|.

    Returns (defects, fnorm) where defects has one entry per element
    (the euclidean norm of the two components of the defect) and fnorm
    is the global L2 norm of the body force. The element integrals are
    those the conservative mixed solve constrains to zero.
    """
    space = fields.spaces["sigma"]
    if space.kind not in ("Hdiv", "BrokenHdiv"):
        raise ValueError("conservation defect needs an H(div) stress slot")
    bc = fields.form.bc if fields.form is not None else None
    elems = np.arange(fields.mesh.num_triangles)
    div_int, f_int, f_sq = element_momentum_integrals(space, bc, elems, quad_degree)
    defect = np.einsum("el,elc->ec", fields.coeffs["sigma"][space.elt_dofs], div_int) + f_int
    return np.linalg.norm(defect, axis=1), float(np.sqrt(np.sum(f_sq)))
