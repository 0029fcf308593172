"""Residual evaluation and adaptive refinement.

The minimum-residual framework comes with a built-in error estimator:
the discrete dual norm of the element residual r_K = B_K x_K - l_K,

    eta_K^2 = r_K^T G_K^{-1} r_K,

evaluated in an enriched broken test space of fixed order p_res. Test
slots identified with L2 need no Gram inversion: their residual is an
explicit function of the trial solution and is integrated pointwise,
which avoids the projection onto a finite modal basis altogether.

Marking uses a simple maximum strategy and refinement is
newest-vertex bisection, so the adaptive loop is
solve -> estimate -> mark -> refine.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .mesh import Mesh, refine
from .forms import (
    formulation,
    build_test_spaces,
    assemble_local_blocks,
    element_trial_dofs,
    l2_slot_residual_ops,
    element_momentum_integrals,
    MOMENTUM_QUAD_DEGREE,
)
from .dpg_solver import SolutionFields, assemble_and_solve, CHUNK

P_RES = 4


@dataclass
class ResidualReport:
    """Elementwise residual contributions eta_K and their total."""

    eta: np.ndarray  # (nelt,)
    p_res: int

    @property
    def total(self) -> float:
        return float(np.sqrt(np.sum(self.eta**2)))


def element_residuals(fields: SolutionFields, p_res: int = P_RES) -> ResidualReport:
    """Per-element residual dual norms of a computed solution.

    The solve's own trial spaces and layout are reused; only the test
    spaces are rebuilt at the enriched order.
    """
    form = fields.form
    if form is None:
        raise ValueError("residuals need the broken formulation the solution came from")
    dp_res = max(p_res - form.p, 0)
    form_res = replace(form, dp=dp_res, test_spaces=build_test_spaces(form.desc, form.skeleton, form.p, dp_res))
    layout = fields.layout
    x = fields.full_vector()
    nelt = form.mesh.num_triangles
    eta2 = np.zeros(nelt)
    exact_degree = max(2 * p_res + 2, 16)
    for start in range(0, nelt, CHUNK):
        elems = np.arange(start, min(start + CHUNK, nelt))
        gdofs = element_trial_dofs(form_res, layout, elems)
        xloc = x[gdofs]
        # Gram-inverted slots (broken H1 / H(div) test functions)
        blocks = assemble_local_blocks(form_res, elems)
        M = np.concatenate([blocks.B, blocks.Bhat], axis=2)
        r = np.einsum("etm,em->et", M, xloc, optimize=True) - blocks.l
        for name, _ in form_res.desc.test_slots:
            if form_res.desc.test_norms[name] == "L2":
                continue
            s = blocks.test_slices[name]
            rs = r[:, s]
            sol = np.linalg.solve(blocks.G[:, s, s], rs[..., None])[..., 0]
            eta2[elems] += np.einsum("et,et->e", rs, sol)
        # exact pointwise path for the L2-identified slots
        wts, reps, load_reps, field_slices = l2_slot_residual_ops(
            form_res, elems, quad_degree=exact_degree
        )
        if reps:
            nfield = next(iter(reps.values())).shape[1]
            xf = xloc[:, :nfield]
            for name, rep in reps.items():
                R = np.einsum("enq...,en->eq...", rep, xf, optimize=True)
                lr = load_reps[name]
                if lr is not None:
                    R = R - lr
                R = R.reshape(R.shape[:2] + (-1,))
                eta2[elems] += np.einsum("eq,eqk,eqk->e", wts, R, R, optimize=True)
    eta2 = np.maximum(eta2, 0.0)
    return ResidualReport(eta=np.sqrt(eta2), p_res=p_res)


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
    p_res: int = P_RES,
    theta: float = 0.5,
) -> list:
    """Run solve / estimate / mark / refine for a number of steps.

    Returns one AdaptiveStep per solve; the mesh of step k+1 is the
    refinement of the mesh of step k.
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
    nelt = fields.mesh.num_triangles
    defects = np.zeros(nelt)
    fnorm2 = 0.0
    for start in range(0, nelt, CHUNK):
        elems = np.arange(start, min(start + CHUNK, nelt))
        div_int, f_int, f_sq = element_momentum_integrals(space, bc, elems, quad_degree)
        xloc = fields.coeffs["sigma"][space.elt_dofs[elems]]
        defect = np.einsum("el,elc->ec", xloc, div_int) + f_int
        defects[elems] = np.linalg.norm(defect, axis=1)
        fnorm2 += np.sum(f_sq)
    return defects, float(np.sqrt(fnorm2))
