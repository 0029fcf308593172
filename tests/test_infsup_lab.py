"""Discrete stability diagnostics: inf-sup constants, auxiliary
constants, and skeleton jump pairings."""

import numpy as np
import pytest

from dpgelast.material import MaterialParams
from dpgelast.mesh import build_square_mesh, uniform_refine
from dpgelast.forms import FORMULATION_IDS
from dpgelast.infsup_lab import (
    TEST_ORDER_BUMP,
    discrete_infsup,
    auxiliary_constants,
    zero_jump_tests,
)

MAT = MaterialParams(lam=1.0, mu=1.0)


class TestDiscreteInfSup:
    @pytest.mark.parametrize("spec", FORMULATION_IDS)
    def test_positive_gamma(self, spec):
        res = discrete_infsup(spec, build_square_mesh(2), MAT, 1)
        assert res.gamma > 1e-8
        assert res.ntrial > 0 and res.ntest >= res.ntrial

    @pytest.mark.parametrize("spec", ["primal", "ultraweak"])
    def test_gamma_stable_under_refinement(self, spec):
        # n = 1 leaves the primal trial space empty (every vertex sits
        # on the clamped boundary), so start one level finer
        m = build_square_mesh(2)
        gammas = []
        for _ in range(3):
            gammas.append(discrete_infsup(spec, m, MAT, 1).gamma)
            m = uniform_refine(m)
        assert max(gammas) / min(gammas) <= 2.0

    def test_primal_degenerate_regime_collapses(self):
        m = build_square_mesh(2)
        std = discrete_infsup("primal", m, MAT, 1).gamma
        degen = discrete_infsup("primal", m, MAT, 1, gamma0_empty=True).gamma
        # without any kinematic constraint the rigid modes kill stability
        assert degen <= std / 1e6

    # gamma at p = 2 on the n = 2 square, recorded from the dense
    # term-by-term assembly that preceded the shared element assembly
    P2_GAMMA = {
        "strong": 0.6458435714653985,
        "ultraweak": 0.24999999999999817,
        "dualmixed": 0.562502429608985,
        "mixed": 0.25000000000005185,
        "primal": 1.0275899514509141,
    }

    @pytest.mark.parametrize("spec", FORMULATION_IDS)
    def test_p2_gamma_matches_recorded(self, spec):
        gamma = discrete_infsup(spec, build_square_mesh(2), MAT, 2).gamma
        assert abs(gamma - self.P2_GAMMA[spec]) <= 1e-12 * self.P2_GAMMA[spec]

    def test_test_order_bump_recorded(self):
        assert set(TEST_ORDER_BUMP) == set(FORMULATION_IDS)
        assert TEST_ORDER_BUMP["mixed"] == 1

    def test_explicit_test_order_override(self):
        m = build_square_mesh(2)
        res = discrete_infsup("primal", m, MAT, 1, test_order=3)
        assert res.test_order == 3
        assert res.gamma > 1e-8


class TestAuxiliaryConstants:
    def test_positive(self):
        c = auxiliary_constants(build_square_mesh(2), 1)
        assert c["C_P"] > 0 and c["C_B"] > 0

    def test_stable_under_refinement(self):
        m = build_square_mesh(1)
        vals = []
        for _ in range(3):
            vals.append(auxiliary_constants(m, 1))
            m = uniform_refine(m)
        for key in ("C_P", "C_B"):
            seq = [v[key] for v in vals]
            assert max(seq) / min(seq) < 2.0


@pytest.fixture(scope="module")
def report():
    return zero_jump_tests(build_square_mesh(2), 1, n_samples=20, seed=11)


class TestZeroJump:
    @pytest.mark.parametrize("which", ["h1", "hdiv"])
    def test_forward_conforming_has_no_jump(self, report, which):
        assert report[which]["forward_max"] < 1e-10

    @pytest.mark.parametrize("which", ["h1", "hdiv"])
    def test_converse_broken_detected(self, report, which):
        assert report[which]["converse_min"] > 1e-3
