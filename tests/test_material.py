"""Material law tests, anchored by a brute-force Voigt inversion oracle."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dpgelast.material import (
    MaterialParams,
    compliance_apply_array,
    stiffness_apply_array,
)


def sym(xx, yy, xy):
    """Symmetric 2x2 tensor from its (xx, yy, xy) components."""
    return np.array([[xx, xy], [xy, yy]])


def comps(t):
    """(xx, yy, xy) components of a symmetric 2x2 tensor."""
    return np.array([t[0, 0], t[1, 1], t[0, 1]])


def voigt_stiffness(m):
    """In-plane stiffness as a 3x3 matrix acting on (xx, yy, xy)."""
    lam, mu = m.lam, m.mu
    return np.array(
        [
            [lam + 2 * mu, lam, 0.0],
            [lam, lam + 2 * mu, 0.0],
            [0.0, 0.0, 2 * mu],
        ]
    )


def oracle_compliance(sig, m):
    """Invert the Voigt stiffness numerically; independent of the closed form."""
    return sym(*np.linalg.solve(voigt_stiffness(m), comps(sig)))


@pytest.fixture
def unit_material():
    return MaterialParams(lam=1.0, mu=1.0)


def test_identity_strain_unit_material(unit_material):
    out = stiffness_apply_array(sym(1.0, 1.0, 0.0), unit_material)
    assert np.array_equal(out, sym(4.0, 4.0, 0.0))


def test_zero_strain(unit_material):
    assert np.array_equal(stiffness_apply_array(sym(0, 0, 0), unit_material), sym(0, 0, 0))


def test_pure_shear(unit_material):
    out = stiffness_apply_array(sym(0.0, 0.0, 1.0), unit_material)
    assert np.array_equal(out, sym(0.0, 0.0, 2.0))


def test_compliance_of_4I(unit_material):
    out = compliance_apply_array(sym(4.0, 4.0, 0.0), unit_material)
    assert np.allclose(comps(out), [1.0, 1.0, 0.0], atol=1e-14)


def test_compliance_zero(unit_material):
    out = compliance_apply_array(sym(0, 0, 0), unit_material)
    assert np.array_equal(out, sym(0.0, 0.0, 0.0))


def test_compliance_matches_voigt_oracle():
    rng = np.random.default_rng(7)
    m = MaterialParams(lam=2.0, mu=0.7)
    for _ in range(200):
        x = sym(*rng.standard_normal(3))
        closed = compliance_apply_array(stiffness_apply_array(x, m), m)
        assert np.allclose(comps(closed), comps(x), atol=1e-13)
        direct = compliance_apply_array(x, m)
        oracle = oracle_compliance(x, m)
        assert np.allclose(comps(direct), comps(oracle), rtol=1e-12, atol=1e-15)


@given(
    st.floats(0.0, 50.0),
    st.floats(0.05, 50.0),
    st.tuples(st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10)),
)
def test_roundtrip_property(lam, mu, components):
    m = MaterialParams(lam=lam, mu=mu)
    x = sym(*components)
    y = compliance_apply_array(stiffness_apply_array(x, m), m)
    scale = max(1.0, *np.abs(components))
    assert np.all(np.abs(comps(y) - comps(x)) <= 1e-12 * scale)


def test_poisson_ratio_values():
    assert MaterialParams(lam=1.0, mu=1.0).nu == 0.25
    assert MaterialParams(lam=0.0, mu=3.0).nu == 0.0
    steel = MaterialParams(lam=123.0, mu=79.3)
    assert abs(steel.nu - 0.304) < 5e-4


def test_invalid_material_rejected():
    with pytest.raises(ValueError):
        MaterialParams(lam=1.0, mu=0.0)
    with pytest.raises(ValueError):
        MaterialParams(lam=-0.5, mu=1.0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("key", ["lam", "mu"])
def test_non_finite_material_rejected(key, value):
    # a non-finite parameter would otherwise surface only as a singular solve
    with pytest.raises(ValueError, match=key):
        MaterialParams(**{"lam": 1.0, "mu": 1.0, key: value})


def test_skew_part_annihilated(unit_material):
    w = np.array([[0.0, 3.0], [-3.0, 0.0]])
    out = stiffness_apply_array(w, unit_material)
    assert np.allclose(out, 0.0, atol=1e-15)
    out = compliance_apply_array(w, unit_material)
    assert np.allclose(out, 0.0, atol=1e-15)


def test_array_paths_match_voigt(unit_material):
    # a batch of tensors against the Voigt matrices applied one at a time
    rng = np.random.default_rng(3)
    mats = rng.standard_normal((5, 2, 2))
    syms = 0.5 * (mats + np.swapaxes(mats, -1, -2))
    stiff = stiffness_apply_array(syms, unit_material)
    comp = compliance_apply_array(syms, unit_material)
    for k in range(5):
        assert np.allclose(stiff[k], sym(*(voigt_stiffness(unit_material) @ comps(syms[k]))), atol=1e-14)
        assert np.allclose(comp[k], oracle_compliance(syms[k], unit_material), atol=1e-14)


def test_out_of_plane_stress(unit_material):
    # plane strain: sigma_zz = lam tr(eps) = nu tr(sigma)
    sig = stiffness_apply_array(sym(1.0, 2.0, 5.0), unit_material)
    assert unit_material.nu * np.trace(sig) == 3.0
