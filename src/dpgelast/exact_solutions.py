"""Closed-form benchmark solutions and error-norm evaluation.

Two benchmarks are provided:

* a smooth manufactured displacement u_i = sin(pi x) sin(pi y) on the
  unit square with lam = mu = 1 and the matching body force;
* a singular equilibrium field on the L-shaped domain whose displacement
  behaves like r^a near the re-entrant corner, built from an Airy-type
  stress function in polar coordinates. Its fields are elementwise in r,
  the polar direction and sin, cos((a +- 1) theta), found once per point,
  and it declares its exponent (params): it is homogeneous about the corner.

Every field object evaluates displacement, displacement gradient, stress
and body force at arbitrary points; correctness is locked by
finite-difference audits in the test-suite. error_norms integrates near
the corner with a rule graded toward it (44 strips, ratio 1/2), built once
per degree and corner vertex; strip l is strip 0 scaled by 2^-l, so the
exact fields are evaluated on strip 0 and the tip only and scaled by
2^(-l a) (displacement) or 2^(-l (a - 1)) (gradient, stress).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .material import MaterialParams, stiffness_apply_array
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
    the location excluded from stress evaluation, or None; a field with a
    singular corner declares its corner mode in params: displacement is
    homogeneous of degree params.a about the corner, its gradient and the
    stress of degree params.a - 1.
    """

    displacement: Callable
    displacement_gradient: Callable
    stress: Callable
    body_force: Callable
    material: MaterialParams
    singular_corner: Optional[np.ndarray] = None
    params: Optional[SingularParams] = None

    def __post_init__(self):
        if (self.singular_corner is None) != (self.params is None):
            raise ValueError("a singular corner comes with its corner-mode params")

    def traction(self, pts, normal):
        sig = self.stress(pts)
        n = np.broadcast_to(np.asarray(normal, dtype=float), pts.shape)
        return np.einsum("...ij,...j->...i", sig, n)


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
        row = np.stack([pi * cx * sy, pi * sx * cy], axis=-1)  # both components share it
        return np.stack([row, row], axis=-2)

    def stress(pts):
        return stiffness_apply_array(displacement_gradient(pts), m)

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


def _exponent_residual(a, nu: float):
    """Value of the matching condition whose root fixes the exponent, at a
    scalar or an array of exponents a."""
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
    vals = _exponent_residual(grid, nu)
    pole = 1.0 / 3.0
    change = (vals[:-1] * vals[1:] < 0) & ~((grid[:-1] < pole) & (pole < grid[1:]))
    if not change.any():
        raise ValueError(
            "no sign change for the exponent equation on "
            f"({eps}, {1 - eps}): endpoint residuals {vals[0]:.3e}, {vals[-1]:.3e}"
        )
    i = int(np.argmax(change))
    lo, hi = grid[i], grid[i + 1]
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
    a, C1, k1, mu = sp.a, sp.C1, 4.0 * (1.0 - sp.nu), m.mu

    # The mode's sector is -3pi/4 < theta < 3pi/4 (slit on the negative
    # x-axis). The L-shape occupies -pi < phi < pi/2 with the re-entrant
    # boundary on phi = pi/2 and phi = pi. Setting theta = phi + pi/4 maps
    # the domain onto the sector, i.e. the mode frame is the domain frame
    # rotated by +pi/4. Q maps domain coordinates to mode coordinates.
    c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
    Q = np.array([[c, -s], [s, c]])  # x_mode = Q @ x_domain

    def corner_terms(pts):
        """r, cos and sin of phi = theta - pi/4 (0 at the corner), sin, cos((a +- 1) theta)."""
        pts = np.asarray(pts, dtype=float)
        pm = pts @ Q.T
        r = np.hypot(pm[..., 0], pm[..., 1])
        th = np.arctan2(pm[..., 1], pm[..., 0])
        inv = 1.0 / np.where(r > 0, r, np.inf)
        trig = (np.sin((a + 1) * th), np.cos((a + 1) * th), np.sin((a - 1) * th), np.cos((a - 1) * th))
        return (r, pts[..., 0] * inv, pts[..., 1] * inv) + trig

    # u_r = r^a A / 2mu, u_t = r^a B / 2mu with A = -(a+1) F + (1-nu) G', B =
    # -F' + (1-nu)(a-1) G, F = C1 sin((a+1) t) + sin((a-1) t), G = -4 cos((a-1) t) / (a-1)
    def profiles(sp1, cp1, sm1, cm1):
        return -(a + 1) * C1 * sp1 + (k1 - a - 1) * sm1, -(a + 1) * C1 * cp1 - (k1 + a - 1) * cm1

    def rotate(cphi, sphi, trr, trt, ttr, ttt):
        """R T R^T of T = [[trr, trt], [ttr, ttt]], R = [[cos phi, -sin phi], [sin phi, cos phi]]."""
        cc, ss, cs = cphi * cphi, sphi * sphi, cphi * sphi
        t = (cc * trr - cs * (trt + ttr) + ss * ttt, cs * (trr - ttt) + cc * trt - ss * ttr)
        t += (cs * (trr - ttt) - ss * trt + cc * ttr, ss * trr + cs * (trt + ttr) + cc * ttt)
        return np.stack(t, axis=-1).reshape(cphi.shape + (2, 2))

    def displacement(pts):
        r, cphi, sphi, *trig = corner_terms(pts)
        ur, ut = r**a / (2 * mu) * np.array(profiles(*trig))
        return np.stack([ur * cphi - ut * sphi, ur * sphi + ut * cphi], axis=-1)

    def displacement_gradient(pts):
        # polar-frame gradient of u_r e_r + u_t e_t:
        # [[du_r/dr, (du_r/dt - u_t)/r], [du_t/dr, (du_t/dt + u_r)/r]]
        r, cphi, sphi, sp1, cp1, sm1, cm1 = corner_terms(pts)
        A, B = profiles(sp1, cp1, sm1, cm1)
        dA = -((a + 1) ** 2) * C1 * cp1 + (a - 1) * (k1 - a - 1) * cm1
        dB = (a + 1) ** 2 * C1 * sp1 + (a - 1) * (k1 + a - 1) * sm1
        ra1 = r ** (a - 1) / (2 * mu)
        return rotate(cphi, sphi, a * ra1 * A, ra1 * (dA - B), a * ra1 * B, ra1 * (dB + A))

    def stress(pts):  # Airy: srr = r^(a-1) (F'' + (a+1) F), stt = a (a+1) r^(a-1) F, srt = -a r^(a-1) F'
        r, cphi, sphi, sp1, cp1, sm1, cm1 = corner_terms(pts)
        if np.any(r < 1e-300):
            raise ValueError("stress evaluation at the corner point is undefined")
        ra = r ** (a - 1)
        F = C1 * sp1 + sm1
        dF = (a + 1) * C1 * cp1 + (a - 1) * cm1
        ddF = -((a + 1) ** 2) * C1 * sp1 - (a - 1) ** 2 * sm1
        srt = -a * ra * dF
        return rotate(cphi, sphi, ra * (ddF + (a + 1) * F), srt, srt, a * (a + 1) * ra * F)

    def body_force(pts):
        return np.zeros(np.shape(pts)[:-1] + (2,))

    return ExactSolution(
        displacement=displacement,
        displacement_gradient=displacement_gradient,
        stress=stress,
        body_force=body_force,
        material=m,
        singular_corner=np.zeros(2),
        params=sp,
    )


# reference triangle vertices; row k is the vertex with local index k
_REF_VERTS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
GRADED_LEVELS = 44


@lru_cache(maxsize=None)
def _group_rule(degree: int, k: int):
    """(reference points, rule of the physical points, levels) of a group:
    the plain rule for k = -1; for a corner at local vertex k the rule graded
    toward reference vertex 0 (degree >= 16) put on the element (vertex 0 on
    k), and the rule of its strip-0 and tip points on vertices k, k+1, k+2."""
    if k < 0:
        return triangle_rule(degree).points, triangle_rule(degree), 0
    degree = max(degree, 16)
    pts, wts = graded_triangle_rule(_REF_VERTS, 0, degree, levels=GRADED_LEVELS)
    ref = map_to_physical(QuadratureRule(pts, wts, degree), _REF_VERTS[None, (k + np.arange(3)) % 3])[0][0]
    nq = len(triangle_rule(degree).weights)
    near = np.r_[: 2 * nq, len(wts) - nq : len(wts)]
    ref.flags.writeable = False
    return ref, QuadratureRule(pts[near], wts[near], degree), GRADED_LEVELS


def _spread(v, levels: int, s: float):
    """Values at the strip-0 and tip points of a graded group (nelt, 3 nq, ...)
    spread over all its points: strip l is strip 0 scaled by 2^-l toward the
    corner, so a quantity homogeneous of degree s about the corner is 2^(-l s)
    times its strip-0 value there. levels 0 (the plain group) returns v."""
    if not levels:
        return v
    nq = v.shape[1] // 3
    scale = 0.5 ** (s * np.arange(levels)).reshape((1, -1, 1) + (1,) * (v.ndim - 2))
    strips = (scale * v[:, None, : 2 * nq]).reshape((len(v), -1) + v.shape[2:])
    return np.concatenate([strips, v[:, 2 * nq :]], axis=1)


def _quadrature_groups(mesh, degree, singular_corner):
    """Yield (elems, reference points, weights, physical points, levels) for
    each group of elements that shares one reference rule (_group_rule):
    the plain rule away from the singular corner; where local vertex k sits
    at the corner, the rule graded toward it, mapped as c + r0 (p - c) +
    r1 (q - c) with c, p, q the vertices k, k+1, k+2 so points near the
    singularity keep their relative accuracy. A graded group's weights
    (4^-l times strip 0's on strip l) are spread in full; its physical
    points are those of strip 0 and the tip, for _spread."""
    verts = mesh.triangle_vertices()
    corner = np.full(mesh.num_triangles, -1)
    if singular_corner is not None:
        d = np.linalg.norm(verts - singular_corner, axis=-1)
        near = d.min(axis=1) < 1e-12
        corner[near] = np.argmin(d[near], axis=1)
    for k in range(-1, 3):
        elems = np.flatnonzero(corner == k)
        if len(elems):
            ref, rule, levels = _group_rule(degree, k)
            pts, wts = map_to_physical(rule, verts[elems][:, (max(k, 0) + np.arange(3)) % 3])
            yield elems, ref, _spread(wts, levels, 2.0), pts, levels


def _weighted_sq(wts, a):
    """Quadrature sum of |a|^2 over elements and points; a is (nelt, nq, ...)."""
    a = a.reshape(a.shape[:2] + (-1,))
    return np.einsum("eq,eqk,eqk->", wts, a, a)


def error_norms(fields, exact: ExactSolution, quad_degree: Optional[int] = None):
    """Relative displacement error plus per-slot absolute L2 errors.

    The displacement error uses the H1 norm when the displacement slot is
    an H1-conforming field and the L2 norm when it is an elementwise
    discontinuous field; the relative error divides by the matching exact
    norm. Stress and rotation slots are reported in L2. Each element
    group of _quadrature_groups is evaluated at once through
    spaces.field_values; on a graded group the exact fields are evaluated on
    strip 0 and the tip and spread over the strips by their homogeneity.
    """
    spaces = fields.spaces
    degree = quad_degree if quad_degree is not None else 2 * max(s.order for s in spaces.values()) + 6
    u_space = spaces.get("u")
    err2 = ref2 = sig2 = 0.0
    for elems, ref, wts, pts, levels in _quadrature_groups(fields.mesh, degree, exact.singular_corner):
        a = exact.params.a if levels else 0.0
        if u_space is not None:
            uh = field_values(u_space, fields.coeffs["u"], elems, ref)
            ue = _spread(exact.displacement(pts), levels, a)
            err2 += _weighted_sq(wts, uh.val - ue)
            ref2 += _weighted_sq(wts, ue)
            if u_space.kind == "H1":
                ge = _spread(exact.displacement_gradient(pts), levels, a - 1)
                err2 += _weighted_sq(wts, uh.grad - ge)
                ref2 += _weighted_sq(wts, ge)
        if "sigma" in spaces:
            sh = field_values(spaces["sigma"], fields.coeffs["sigma"], elems, ref).val
            sig2 += _weighted_sq(wts, sh - _spread(exact.stress(pts), levels, a - 1))
    rel = np.sqrt(err2 / ref2) if ref2 > 0 else np.sqrt(err2)
    return float(rel), ({"sigma": float(np.sqrt(sig2))} if "sigma" in spaces else {})
