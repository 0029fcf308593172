"""Quadrature exactness tests against closed-form monomial integrals."""

import math

import numpy as np
import pytest

from dpgelast.quadrature import (
    QuadratureRule,
    triangle_rule,
    edge_rule,
    map_to_physical,
    graded_triangle_rule,
)


def exact_tri_monomial(i, j):
    """Integral of x^i y^j over the reference triangle x,y>=0, x+y<=1."""
    return math.factorial(i) * math.factorial(j) / math.factorial(i + j + 2)


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 5, 8, 12, 16])
def test_triangle_rule_exactness(degree):
    rule = triangle_rule(degree)
    assert np.all(rule.weights > 0)
    assert abs(rule.weights.sum() - 0.5) < 1e-14
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            val = np.sum(rule.weights * rule.points[:, 0] ** i * rule.points[:, 1] ** j)
            assert abs(val - exact_tri_monomial(i, j)) < 1e-13


@pytest.mark.parametrize("degree", [0, 1, 3, 7, 11])
def test_edge_rule_exactness(degree):
    t, w = edge_rule(degree)
    for k in range(degree + 1):
        assert abs(np.sum(w * t**k) - 1.0 / (k + 1)) < 1e-14


def test_map_to_physical_area():
    rule = triangle_rule(2)
    verts = np.array(
        [
            [[0.0, 0.0], [2.0, 0.0], [0.0, 3.0]],
            [[1.0, 1.0], [1.5, 1.2], [0.9, 2.0]],
        ]
    )
    pts, wts = map_to_physical(rule, verts)
    areas = wts.sum(axis=1)
    assert abs(areas[0] - 3.0) < 1e-13
    # shoelace oracle for the second triangle
    v = verts[1]
    shoelace = 0.5 * abs(
        (v[1, 0] - v[0, 0]) * (v[2, 1] - v[0, 1]) - (v[1, 1] - v[0, 1]) * (v[2, 0] - v[0, 0])
    )
    assert abs(areas[1] - shoelace) < 1e-13
    # linear function integrates to area times centroid value
    lin = pts[..., 0] + 2 * pts[..., 1]
    cent = verts.mean(axis=1)
    expected = areas * (cent[:, 0] + 2 * cent[:, 1])
    assert np.allclose((wts * lin).sum(axis=1), expected, atol=1e-13)


def test_graded_rule_handles_power_singularity():
    # integral of r^(s-1) over the unit right triangle with the corner at 0,
    # oracle computed by polar integration: int_0^{pi/2} int_0^{R(t)} r^s dr dt
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    s = -0.81  # integrand r^s with s > -2 is integrable
    pts, wts = graded_triangle_rule(verts, corner=0, degree=16, levels=44)
    r = np.linalg.norm(pts, axis=1)
    val = np.sum(wts * r**s)

    from scipy.integrate import quad

    def radial(theta):
        R = 1.0 / (np.cos(theta) + np.sin(theta))
        return R ** (s + 2) / (s + 2)

    oracle, _ = quad(radial, 0.0, np.pi / 2, epsabs=1e-13, epsrel=1e-13)
    assert abs(val - oracle) < 1e-8 * abs(oracle)


def test_graded_rule_matches_plain_rule_for_smooth():
    verts = np.array([[0.0, 0.0], [1.0, 0.2], [0.3, 1.1]])
    pts, wts = graded_triangle_rule(verts, corner=0, degree=6, levels=25)
    rule = triangle_rule(6)
    ppts, pwts = map_to_physical(rule, verts[None])
    f = lambda p: np.sin(p[..., 0]) * np.exp(p[..., 1])
    assert abs(np.sum(wts * f(pts)) - np.sum(pwts * f(ppts))) < 1e-10


@pytest.mark.parametrize("k", [0, 1, 2])
def test_graded_strips_are_scaled_copies_of_strip_zero(k):
    # strip l of the graded rule is strip 0 scaled by 2^-l toward the graded
    # vertex; with that vertex at the origin (local vertex k) the points
    # scale bitwise, both for the rule graded toward reference vertex 0 and
    # mapped from the corner-first vertices k, k + 1, k + 2 and for the rule
    # built on the physical vertices
    levels, degree = 44, 16
    nq = len(triangle_rule(degree).weights)
    verts = np.roll(np.array([[0.0, 0.0], [0.7, 0.1], [0.2, 0.9]]), k, axis=0)
    unit = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    ref = QuadratureRule(*graded_triangle_rule(unit, 0, degree, levels), degree)
    mapped = map_to_physical(ref, verts[(k + np.arange(3)) % 3][None])
    for pts, wts in ((mapped[0][0], mapped[1][0]), graded_triangle_rule(verts, k, degree, levels)):
        assert len(wts) == (2 * levels + 1) * nq
        p = pts[: 2 * nq * levels].reshape(levels, 2 * nq, 2)
        w = wts[: 2 * nq * levels].reshape(levels, 2 * nq)
        for level in range(levels):
            assert np.array_equal(p[level], 0.5**level * p[0])
            assert np.array_equal(w[level], 0.25**level * w[0])
