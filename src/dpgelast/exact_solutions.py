"""Closed-form benchmark solutions and error-norm evaluation.

Two benchmarks are provided:

* a smooth manufactured displacement u_i = sin(pi x) sin(pi y) on the
  unit square with lam = mu = 1 and the matching body force;
* a singular equilibrium field on the L-shaped domain whose displacement
  behaves like r^a near the re-entrant corner, built from an Airy-type
  stress function in polar coordinates.

Every field object evaluates displacement, displacement gradient, stress
and body force at arbitrary points; correctness is locked by
finite-difference audits in the test-suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .material import MaterialParams
from .quadrature import QuadratureRule, triangle_rule, map_to_physical, graded_triangle_rule
from .spaces import field_values


@dataclass(frozen=True)
class SingularParams:
    """Parameters of the corner field: exponent a and amplitude C1.

    The mode uses the two sine branches only (the cosine amplitudes are
    zero and the second sine amplitude is normalized to one).
    """

    a: float
    C1: float
    nu: float


@dataclass
class ExactSolution:
    """Bundle of evaluable closed-form fields.

    displacement(pts) -> (..., 2); displacement_gradient(pts) -> (..., 2, 2)
    with entries du_i/dx_j; stress(pts) -> (..., 2, 2); body_force(pts) ->
    (..., 2). traction(pts, normal) -> stress . normal. singular_corner is
    the location excluded from stress evaluation, or None.
    """

    displacement: Callable
    displacement_gradient: Callable
    stress: Callable
    body_force: Callable
    material: MaterialParams
    singular_corner: Optional[np.ndarray] = None

    def traction(self, pts, normal):
        sig = self.stress(pts)
        n = np.broadcast_to(np.asarray(normal, dtype=float), pts.shape)
        return np.einsum("...ij,...j->...i", sig, n)

    def strain(self, pts):
        g = self.displacement_gradient(pts)
        return 0.5 * (g + np.swapaxes(g, -1, -2))


def smooth_solution_2d(material: Optional[MaterialParams] = None) -> ExactSolution:
    """Manufactured smooth benchmark on the unit square.

    Both displacement components equal sin(pi x) sin(pi y); the stress is
    the stiffness applied to the strain and the body force is its negative
    divergence, both in closed form.
    """
    m = material if material is not None else MaterialParams(lam=1.0, mu=1.0)
    lam, mu = m.lam, m.mu
    pi = np.pi

    def displacement(pts):
        pts = np.asarray(pts, dtype=float)
        s = np.sin(pi * pts[..., 0]) * np.sin(pi * pts[..., 1])
        return np.stack([s, s], axis=-1)

    def displacement_gradient(pts):
        pts = np.asarray(pts, dtype=float)
        sx, cx = np.sin(pi * pts[..., 0]), np.cos(pi * pts[..., 0])
        sy, cy = np.sin(pi * pts[..., 1]), np.cos(pi * pts[..., 1])
        dx = pi * cx * sy
        dy = pi * sx * cy
        g = np.empty(pts.shape[:-1] + (2, 2))
        g[..., 0, 0] = dx
        g[..., 0, 1] = dy
        g[..., 1, 0] = dx
        g[..., 1, 1] = dy
        return g

    def stress(pts):
        g = displacement_gradient(pts)
        eps = 0.5 * (g + np.swapaxes(g, -1, -2))
        tr = eps[..., 0, 0] + eps[..., 1, 1]
        sig = 2.0 * mu * eps
        sig[..., 0, 0] += lam * tr
        sig[..., 1, 1] += lam * tr
        return sig

    def body_force(pts):
        pts = np.asarray(pts, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        s = np.sin(pi * x) * np.sin(pi * y)
        cc = np.cos(pi * (x + y))
        f = 2.0 * mu * pi**2 * s - (lam + mu) * pi**2 * cc
        return np.stack([f, f], axis=-1)

    return ExactSolution(
        displacement=displacement,
        displacement_gradient=displacement_gradient,
        stress=stress,
        body_force=body_force,
        material=m,
    )


def _mode_functions(sp: SingularParams):
    """Angular profile F, its derivatives, and the companion G', for the
    two-sine corner mode."""
    a, C1 = sp.a, sp.C1

    def F(t):
        return C1 * np.sin((a + 1) * t) + np.sin((a - 1) * t)

    def dF(t):
        return C1 * (a + 1) * np.cos((a + 1) * t) + (a - 1) * np.cos((a - 1) * t)

    def ddF(t):
        return -C1 * (a + 1) ** 2 * np.sin((a + 1) * t) - (a - 1) ** 2 * np.sin((a - 1) * t)

    def G(t):
        return -4.0 / (a - 1) * np.cos((a - 1) * t)

    def dG(t):
        return 4.0 * np.sin((a - 1) * t)

    return F, dF, ddF, G, dG


def _exponent_residual(a: float, nu: float) -> float:
    """Value of the matching condition whose root fixes the exponent."""
    th = 0.75 * np.pi
    denom = (a + 1) * np.sin((a + 1) * th)
    C1 = (4.0 * (1.0 - nu) - (a + 1)) * np.sin((a - 1) * th) / denom
    return C1 * (a + 1) * np.cos((a + 1) * th) + (4.0 * (1.0 - nu) + (a - 1)) * np.cos((a - 1) * th)


def solve_singularity_exponent(nu: float) -> SingularParams:
    """Find the corner-mode exponent a in (0, 1) by bracketing bisection.

    The root of the angular matching condition is located to an interval
    width of 1e-13; the amplitude C1 is evaluated at the root.
    """
    if not 0.0 <= nu < 0.5:
        raise ValueError(f"Poisson ratio must lie in [0, 0.5), got {nu}")
    # The residual has a removable trivial root at a = 0 and a pole at
    # a = 1/3 where the amplitude denominator sin((a+1) 3pi/4) vanishes;
    # scan for a genuine sign change away from both before bisecting.
    eps = 1e-6
    grid = np.linspace(eps, 1.0 - eps, 4001)
    vals = np.array([_exponent_residual(g, nu) for g in grid])
    pole = 1.0 / 3.0
    bracket = None
    for i in range(len(grid) - 1):
        if vals[i] * vals[i + 1] < 0 and not (grid[i] < pole < grid[i + 1]):
            bracket = (grid[i], grid[i + 1])
            break
    if bracket is None:
        raise ValueError(
            "no sign change for the exponent equation on "
            f"({eps}, {1 - eps}): endpoint residuals {vals[0]:.3e}, {vals[-1]:.3e}"
        )
    lo, hi = bracket
    flo = _exponent_residual(lo, nu)
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        fmid = _exponent_residual(mid, nu)
        if flo * fmid <= 0:
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
    a = 0.5 * (lo + hi)
    th = 0.75 * np.pi
    C1 = (4.0 * (1.0 - nu) - (a + 1)) * np.sin((a - 1) * th) / ((a + 1) * np.sin((a + 1) * th))
    return SingularParams(a=a, C1=C1, nu=nu)


def singular_solution(material: Optional[MaterialParams] = None) -> ExactSolution:
    """Equilibrium corner field on the L-shaped domain (body force zero).

    The classical polar-coordinate mode lives on a sector with the slit
    along the negative x-axis; the L-shape here places its re-entrant
    boundary along the rays at angles +3pi/4 and -3pi/4 from the positive
    x-axis after rotating the frame by pi/4. Fields are therefore
    evaluated in a frame rotated so the sector bisector aligns with the
    geometry, then rotated back to the domain frame.
    """
    m = material if material is not None else MaterialParams(lam=123.0, mu=79.3)
    sp = solve_singularity_exponent(m.nu)
    a, nu, mu, lam = sp.a, sp.nu, m.mu, m.lam
    F, dF, ddF, G, dG = _mode_functions(sp)

    # The mode's sector is -3pi/4 < theta < 3pi/4 (slit on the negative
    # x-axis). The L-shape occupies -pi < phi < pi/2 with the re-entrant
    # boundary on phi = pi/2 and phi = pi. Setting theta = phi + pi/4 maps
    # the domain onto the sector, i.e. the mode frame is the domain frame
    # rotated by +pi/4. Q maps domain coordinates to mode coordinates.
    c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
    Q = np.array([[c, -s], [s, c]])  # x_mode = Q @ x_domain

    def polar(pts_mode):
        r = np.hypot(pts_mode[..., 0], pts_mode[..., 1])
        th = np.arctan2(pts_mode[..., 1], pts_mode[..., 0])
        return r, th

    def displacement(pts):
        pts = np.asarray(pts, dtype=float)
        pm = pts @ Q.T
        r, th = polar(pm)
        ur = (1.0 / (2 * mu)) * r**a * (-(a + 1) * F(th) + (1 - nu) * dG(th))
        ut = (1.0 / (2 * mu)) * r**a * (-dF(th) + (1 - nu) * (a - 1) * G(th))
        ct, st = np.cos(th), np.sin(th)
        um = np.stack([ur * ct - ut * st, ur * st + ut * ct], axis=-1)
        return um @ Q

    def stress_mode(pm):
        r, th = polar(pm)
        ra = r ** (a - 1)
        srr = ra * (ddF(th) + (a + 1) * F(th))
        stt = a * (a + 1) * ra * F(th)
        srt = -a * ra * dF(th)
        ct, st = np.cos(th), np.sin(th)
        # polar -> Cartesian tensor rotation
        sxx = srr * ct**2 - 2 * srt * st * ct + stt * st**2
        syy = srr * st**2 + 2 * srt * st * ct + stt * ct**2
        sxy = (srr - stt) * st * ct + srt * (ct**2 - st**2)
        out = np.empty(pm.shape[:-1] + (2, 2))
        out[..., 0, 0] = sxx
        out[..., 0, 1] = sxy
        out[..., 1, 0] = sxy
        out[..., 1, 1] = syy
        return out

    def stress(pts):
        pts = np.asarray(pts, dtype=float)
        pm = pts @ Q.T
        r = np.hypot(pm[..., 0], pm[..., 1])
        if np.any(r < 1e-300):
            raise ValueError("stress evaluation at the corner point is undefined")
        sm = stress_mode(pm)
        return Q.T @ sm @ Q

    def displacement_gradient(pts):
        pts = np.asarray(pts, dtype=float)
        pm = pts @ Q.T
        r, th = polar(pm)
        # angular profiles of (u_r, u_theta) and their derivatives
        A = -(a + 1) * F(th) + (1 - nu) * dG(th)
        dA = -(a + 1) * dF(th) + (1 - nu) * 4 * (a - 1) * np.cos((a - 1) * th)
        B = -dF(th) + (1 - nu) * (a - 1) * G(th)
        dB = -ddF(th) + (1 - nu) * (a - 1) * dG(th)
        ra1 = r ** (a - 1) / (2 * mu)
        # gradient of u_r e_r + u_t e_t in the polar orthonormal frame:
        # [[du_r/dr, (du_r/dth - u_t)/r], [du_t/dr, (du_t/dth + u_r)/r]]
        g_rr = a * ra1 * A
        g_rt = ra1 * (dA - B)
        g_tr = a * ra1 * B
        g_tt = ra1 * (dB + A)
        ct, st = np.cos(th), np.sin(th)
        # rotate the frame tensor to mode-Cartesian: G_cart = P G_polar P^T
        # with P columns (e_r, e_theta)
        P = np.empty(pm.shape[:-1] + (2, 2))
        P[..., 0, 0] = ct
        P[..., 0, 1] = -st
        P[..., 1, 0] = st
        P[..., 1, 1] = ct
        Gp = np.empty(pm.shape[:-1] + (2, 2))
        Gp[..., 0, 0] = g_rr
        Gp[..., 0, 1] = g_rt
        Gp[..., 1, 0] = g_tr
        Gp[..., 1, 1] = g_tt
        gm = P @ Gp @ np.swapaxes(P, -1, -2)
        return Q.T @ gm @ Q

    def body_force(pts):
        pts = np.asarray(pts, dtype=float)
        return np.zeros(pts.shape[:-1] + (2,))

    sol = ExactSolution(
        displacement=displacement,
        displacement_gradient=displacement_gradient,
        stress=stress,
        body_force=body_force,
        material=m,
        singular_corner=np.zeros(2),
    )
    sol.params = sp
    return sol


# reference triangle vertices; row k is the vertex with local index k
_REF_VERTS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def _quadrature_groups(mesh, degree, singular_corner):
    """Yield (elems, reference points, physical points, weights) for each
    group of elements that shares one reference rule.

    Elements away from the singular corner share the plain rule. Elements
    whose local vertex k sits at the corner share one rule graded toward
    reference vertex 0, mapped from vertex k as c + r0 (p - c) + r1 (q - c)
    with c, p, q the vertices k, k+1, k+2, so points near the singularity
    keep their relative accuracy; the reference points of the basis are
    the same combination of the reference vertices.
    """
    verts = mesh.triangle_vertices()
    corner = np.full(mesh.num_triangles, -1)
    if singular_corner is not None:
        d = np.linalg.norm(verts - singular_corner, axis=-1)
        near = d.min(axis=1) < 1e-12
        corner[near] = np.argmin(d[near], axis=1)
    groups = [(corner < 0, 0, triangle_rule(degree))]
    if np.any(corner >= 0):
        gdeg = max(degree, 16)
        graded = QuadratureRule(*graded_triangle_rule(_REF_VERTS, 0, gdeg, levels=44), degree=gdeg)
        groups += [(corner == k, k, graded) for k in range(3)]
    for mask, k, rule in groups:
        if np.any(mask):
            order = (k + np.arange(3)) % 3
            ref = map_to_physical(rule, _REF_VERTS[None, order])[0][0]
            yield (np.flatnonzero(mask), ref) + map_to_physical(rule, verts[mask][:, order])


def _weighted_sq(wts, a):
    """Quadrature sum of |a|^2 over elements and points; a is (nelt, nq, ...)."""
    return np.sum(wts * np.sum(a.reshape(a.shape[:2] + (-1,)) ** 2, axis=-1))


def error_norms(fields, exact: ExactSolution, quad_degree: Optional[int] = None):
    """Relative displacement error plus per-slot absolute L2 errors.

    The displacement error uses the H1 norm when the displacement slot is
    an H1-conforming field and the L2 norm when it is an elementwise
    discontinuous field; the relative error divides by the matching exact
    norm. Stress and rotation slots are reported in L2. Each element
    group of _quadrature_groups is evaluated at once through
    spaces.field_values.
    """
    spaces = fields.spaces
    degree = quad_degree if quad_degree is not None else 2 * max(s.order for s in spaces.values()) + 6
    u_space = spaces.get("u")
    err2 = ref2 = sig2 = 0.0
    for elems, ref, pts, wts in _quadrature_groups(fields.mesh, degree, exact.singular_corner):
        if u_space is not None:
            uh = field_values(u_space, fields.coeffs["u"], elems, ref)
            ue = exact.displacement(pts)
            err2 += _weighted_sq(wts, uh.val - ue)
            ref2 += _weighted_sq(wts, ue)
            if u_space.kind == "H1":
                ge = exact.displacement_gradient(pts)
                err2 += _weighted_sq(wts, uh.grad - ge)
                ref2 += _weighted_sq(wts, ge)
        if "sigma" in spaces:
            sh = field_values(spaces["sigma"], fields.coeffs["sigma"], elems, ref).val
            sig2 += _weighted_sq(wts, sh - exact.stress(pts))
    rel = np.sqrt(err2 / ref2) if ref2 > 0 else np.sqrt(err2)
    return float(rel), ({"sigma": float(np.sqrt(sig2))} if "sigma" in spaces else {})
