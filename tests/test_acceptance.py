"""End-to-end acceptance gate.

Each test exercises one numbered criterion and prints a single
PASS/FAIL line; the assertion mirrors the printed verdict. Criterion 8
checks the solve path hybrid_mixed_conservative, which enforces
int_K (div sigma_h + f) = 0 on every element through per-element
Lagrange multipliers. The plain path hybrid_mixed is the exact-L2 path
of the mixed minimum-residual method: its stationarity couples the
momentum residual with the constitutive and symmetry residuals, so it
does not balance momentum elementwise and is not the solve criterion 8
is about.
"""

import time

import numpy as np
import pytest

from dpgelast.material import (
    MaterialParams,
    stiffness_apply_array,
    compliance_apply_array,
)
from dpgelast.mesh import build_square_mesh, build_lshape_mesh, uniform_refine
from dpgelast.quadrature import triangle_rule, map_to_physical
from dpgelast.spaces import volume_basis
from dpgelast.exact_solutions import (
    smooth_solution_2d,
    singular_solution,
    solve_singularity_exponent,
    _exponent_residual,
    error_norms,
)
from dpgelast.forms import bc_from_exact
from dpgelast.dpg_solver import solve
from dpgelast.residual_adaptivity import (
    element_residuals,
    mark,
    adaptive_loop,
    local_conservation_defect,
)
from dpgelast.infsup_lab import discrete_infsup, zero_jump_tests
from dpgelast.cli_io import RunConfig, run_convergence, estimate_rate

MAT = MaterialParams(lam=1.0, mu=1.0)

DPG_SPECS = ("primal", "strong", "ultraweak", "mixed")
STUDY_SPECS = DPG_SPECS + ("galerkin",)


def report(n, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def smooth():
    return smooth_solution_2d()


@pytest.fixture(scope="module")
def singular():
    return singular_solution()


@pytest.fixture(scope="module")
def convergence_records(smooth, tmp_path_factory):
    """Uniform-refinement studies shared by criteria 4 and 5."""
    out = tmp_path_factory.mktemp("studies")
    records = {}
    for spec in STUDY_SPECS:
        for p in (1, 2):
            cfg = RunConfig(
                formulation=spec, p=p, steps=4, initial_n=2, output_dir=str(out / f"{spec}{p}")
            )
            records[(spec, p)] = run_convergence(cfg)
    return records


def test_criterion_01_tensor_inverse():
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    sig = rng.standard_normal((1000, 2, 2))
    sig = 0.5 * (sig + np.swapaxes(sig, -1, -2))
    back = compliance_apply_array(stiffness_apply_array(sig, MAT), MAT)
    err = np.abs(back - sig).max()
    lams = rng.uniform(0.1, 10.0, size=1000)
    mus = rng.uniform(0.1, 10.0, size=1000)
    worst = err
    for i in range(0, 1000, 50):
        m = MaterialParams(lam=lams[i], mu=mus[i])
        b = stiffness_apply_array(compliance_apply_array(sig[i : i + 1], m), m)
        worst = max(worst, np.abs(b - sig[i : i + 1]).max())
    dt = time.perf_counter() - t0
    report(1, worst <= 1e-12 and dt < 1.0, f"round-trip error {worst:.3e}, {dt:.3f}s")


def test_criterion_02_singular_exponent():
    t0 = time.perf_counter()
    params = solve_singularity_exponent(0.304)
    resid = abs(_exponent_residual(params.a, 0.304))
    dt = time.perf_counter() - t0
    ok = abs(params.a - 0.5946) < 5e-4 and resid <= 1e-12 and dt < 1.0
    report(2, ok, f"a = {params.a:.6f}, residual {resid:.2e}, {dt:.3f}s")


def test_criterion_03_fosls_equals_strong(smooth):
    t0 = time.perf_counter()
    bc = bc_from_exact(smooth)
    mesh = build_square_mesh(4)
    worst = 0.0
    for p in (1, 2):
        a = solve("strong", mesh, smooth.material, p, bc=bc)
        b = solve("fosls", mesh, smooth.material, p, bc=bc)
        d = np.linalg.norm(a.coeffs["u"] - b.coeffs["u"]) / np.linalg.norm(a.coeffs["u"])
        worst = max(worst, d)
    dt = time.perf_counter() - t0
    report(3, worst <= 1e-8 and dt < 30.0, f"max displacement deviation {worst:.3e}, {dt:.1f}s")


def test_criterion_04_smooth_rates(convergence_records):
    lines, ok = [], True
    for spec in STUDY_SPECS:
        for p in (1, 2):
            slope = convergence_records[(spec, p)].error_slope
            good = abs(slope - (-p / 2)) <= 0.12
            ok = ok and good
            lines.append(f"{spec} p={p}: {slope:+.3f}")
    report(4, ok, "; ".join(lines))


def test_criterion_05_eta_monotone(convergence_records):
    ok, worst = True, 0.0
    for spec in DPG_SPECS:
        for p in (1, 2):
            etas = [r["eta"] for r in convergence_records[(spec, p)].steps]
            for a, b in zip(etas, etas[1:]):
                worst = max(worst, b - a)
                ok = ok and b <= a + 1e-10
    report(5, ok, f"max eta increase {worst:.3e}")


def test_criterion_06_lshape_uniform_rate(tmp_path):
    t0 = time.perf_counter()
    cfg = RunConfig(
        benchmark="lshape_singular",
        formulation="primal",
        p=2,
        steps=4,
        initial_n=1,
        output_dir=str(tmp_path),
    )
    rec = run_convergence(cfg)
    slope = estimate_rate(rec, 3, "eta")
    dt = time.perf_counter() - t0
    ok = abs(slope - (-0.297)) <= 0.05 and dt < 600.0
    report(6, ok, f"eta slope {slope:+.4f} vs -0.297 +/- 0.05, {dt:.0f}s")


def test_criterion_07_adaptivity_beats_uniform(singular, tmp_path):
    bc = bc_from_exact(singular)
    lines, ok = [], True
    for spec in ("primal", "strong"):
        cfg = RunConfig(
            benchmark="lshape_singular",
            formulation=spec,
            p=1,
            steps=4,
            initial_n=1,
            output_dir=str(tmp_path / spec),
        )
        uni = estimate_rate(run_convergence(cfg), 3, "eta")
        steps = adaptive_loop(spec, build_lshape_mesh(), singular.material, 1, bc, steps=9)
        rows = [{"dofs": s.ndofs, "eta": s.report.total} for s in steps]
        ada = estimate_rate(rows, 3, "eta")
        good = abs(ada) > abs(uni)
        # marked elements cluster at the reentrant corner
        last = steps[-1]
        marked = mark(last.report)
        cent = last.mesh.vertices[last.mesh.triangles[marked]].mean(axis=1)
        frac = float(np.mean(np.linalg.norm(cent, axis=1) < 0.25))
        good = good and frac >= 0.25
        ok = ok and good
        lines.append(f"{spec}: adaptive {ada:+.4f} vs uniform {uni:+.4f}, corner frac {frac:.2f}")
    report(7, ok, "; ".join(lines))


def test_criterion_08_hybrid_conservation(smooth):
    f = solve(
        "hybrid_mixed_conservative", build_square_mesh(4), smooth.material, 1, bc=bc_from_exact(smooth)
    )
    defect, fnorm = local_conservation_defect(f)
    worst = defect.max()
    report(8, worst <= 1e-8 * fnorm, f"max elementwise defect {worst:.3e} vs {1e-8 * fnorm:.3e}")


def test_criterion_09_zero_jump():
    t0 = time.perf_counter()
    rep = zero_jump_tests(build_square_mesh(3), 1, n_samples=50, seed=7)
    dt = time.perf_counter() - t0
    fmax = max(rep["h1"]["forward_max"], rep["hdiv"]["forward_max"])
    cmin = min(rep["h1"]["converse_min"], rep["hdiv"]["converse_min"])
    ok = fmax <= 1e-10 and cmin > 1e-6 and dt < 10.0
    report(9, ok, f"forward max {fmax:.2e}, converse min {cmin:.2e}, {dt:.2f}s")


def test_criterion_10_infsup():
    t0 = time.perf_counter()
    lines, ok = [], True
    meshes = [build_square_mesh(2)]
    for _ in range(2):
        meshes.append(uniform_refine(meshes[-1]))
    for spec in ("strong", "ultraweak", "dualmixed", "mixed", "primal"):
        gammas = [discrete_infsup(spec, m, MAT, 2).gamma for m in meshes]
        good = min(gammas) > 0 and max(gammas) / min(gammas) <= 2.0
        ok = ok and good
        lines.append(f"{spec}: ratio {max(gammas) / min(gammas):.3f}")
    std = discrete_infsup("primal", meshes[0], MAT, 2).gamma
    degen = discrete_infsup("primal", meshes[0], MAT, 2, gamma0_empty=True).gamma
    degen_ok = degen <= std / 1e6
    ok = ok and degen_ok
    dt = time.perf_counter() - t0
    lines.append(f"primal degenerate {degen:.2e} vs {std:.3f}")
    report(10, ok and dt < 120.0, "; ".join(lines) + f", {dt:.0f}s")


def test_criterion_11_strong_eta_vs_error_norm(smooth):
    mesh = build_square_mesh(4)
    f = solve("strong", mesh, smooth.material, 2, bc=bc_from_exact(smooth))
    eta = element_residuals(f).total

    rule = triangle_rule(20)
    elems = np.arange(mesh.num_triangles)
    verts = mesh.vertices[mesh.triangles[elems]]
    phys, pwts = map_to_physical(rule, verts)
    sig_space, u_space = f.spaces["sigma"], f.spaces["u"]
    bs = volume_basis(sig_space, elems, rule.points)
    bu = volume_basis(u_space, elems, rule.points)
    sig = np.einsum("el,elqij->eqij", f.coeffs["sigma"][sig_space.elt_dofs[elems]], bs.val)
    dsig = np.einsum("el,elqi->eqi", f.coeffs["sigma"][sig_space.elt_dofs[elems]], bs.div)
    gu = np.einsum("el,elqij->eqij", f.coeffs["u"][u_space.elt_dofs[elems]], bu.grad)

    # first-order-system error norm against the manufactured solution
    e_sig = sig - smooth.stress(phys)
    e_gu = gu - smooth.displacement_gradient(phys)
    r1 = 0.5 * (e_sig + np.swapaxes(e_sig, -1, -2)) - stiffness_apply_array(e_gu, smooth.material)
    r2 = dsig + smooth.body_force(phys)
    skw = 0.5 * (e_sig - np.swapaxes(e_sig, -1, -2))
    dens = (
        np.sum(r1 * r1, axis=(-1, -2)) + np.sum(r2 * r2, axis=-1) + np.sum(skw * skw, axis=(-1, -2))
    )
    direct = float(np.sqrt(np.sum(dens * pwts)))
    rel = abs(eta - direct) / direct
    report(11, rel <= 0.01, f"eta {eta:.6e} vs direct {direct:.6e}, deviation {rel:.2e}")


def test_criterion_12_deterministic_csv(tmp_path):
    texts = []
    for sub in ("run1", "run2"):
        out = tmp_path / sub
        cfg = RunConfig(formulation="ultraweak", p=1, steps=2, output_dir=str(out))
        run_convergence(cfg)
        texts.append((out / "convergence.csv").read_bytes())
    report(12, texts[0] == texts[1], "repeated study CSVs are byte-identical")
