"""Discrete stability diagnostics: inf-sup constants, auxiliary
constants, and skeleton jump pairings."""

from functools import lru_cache

import numpy as np
import pytest
import scipy.linalg as sla

from dpgelast.material import MaterialParams
from dpgelast.mesh import build_square_mesh, skeleton, uniform_refine
from dpgelast.forms import DESCRIPTORS, FORMULATION_IDS
from dpgelast import infsup_lab
from dpgelast.infsup_lab import (
    TEST_ORDER_BUMP,
    _infsup_operators,
    discrete_infsup,
    auxiliary_constants,
    jump_pairing_matrix,
    zero_jump_tests,
)
from dpgelast.spaces import broken_h1_space, trace_spaces

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

    @pytest.mark.parametrize("spec", ["primal", "ultraweak"])
    def test_gamma_stable_to_level_three(self, spec):
        m = build_square_mesh(2)
        gammas = []
        for _ in range(4):
            gammas.append(discrete_infsup(spec, m, MAT, 1).gamma)
            m = uniform_refine(m)
        assert max(gammas) / min(gammas) <= 2.0

    @pytest.mark.parametrize("spec", ["strong", "dualmixed", "primal"])
    def test_degenerate_regime_collapses_on_every_level(self, spec):
        m = build_square_mesh(2)
        for _ in range(3):
            std = discrete_infsup(spec, m, MAT, 1).gamma
            degen = discrete_infsup(spec, m, MAT, 1, gamma0_empty=True).gamma
            assert degen <= 1e-6 * std
            m = uniform_refine(m)

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


@lru_cache(maxsize=None)
def square_level(level):
    """build_square_mesh(2) refined uniformly `level` times."""
    return uniform_refine(square_level(level - 1)) if level else build_square_mesh(2)


@lru_cache(maxsize=None)
def dense_gamma(spec, p, gamma0_empty, level):
    """gamma from the dense generalized eigenproblem of the same operators on
    square_level(level); kept, as two test classes check against it."""
    ops = _infsup_operators(DESCRIPTORS[spec], square_level(level), MAT, p, p + TEST_ORDER_BUMP[spec], gamma0_empty)
    B, GY, GX = (M.toarray() for M in ops)
    A = B.T @ np.linalg.solve(GY, B)
    lam = sla.eigh(0.5 * (A + A.T), GX, eigvals_only=True)
    return float(np.sqrt(max(lam[0], 0.0)))


class TestAgainstDenseEigensolve:
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("gamma0_empty", [False, True])
    @pytest.mark.parametrize("spec", FORMULATION_IDS)
    def test_gamma_matches_dense(self, spec, gamma0_empty, p):
        for level in range(4 - p):
            gamma = discrete_infsup(spec, square_level(level), MAT, p, gamma0_empty=gamma0_empty).gamma
            ref = dense_gamma(spec, p, gamma0_empty, level)
            if ref > 1e-6:
                assert abs(gamma - ref) <= 1e-10 * ref
            else:
                # a degenerate pair: both gammas are square roots of an
                # eigenvalue at rounding level, only their size compares
                assert gamma <= 1e-6


class TestQuasiDefiniteSaddleLU:
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("gamma0_empty", [False, True])
    @pytest.mark.parametrize("spec", FORMULATION_IDS)
    def test_gamma_within_1e12_of_dense(self, spec, gamma0_empty, p):
        # the diagonal-pivot solves drift by about 1e-9; the refined
        # Rayleigh quotient keeps gamma at the dense eigensolve's rounding
        for level in range(4 - p):
            ref = dense_gamma(spec, p, gamma0_empty, level)
            if ref > 1e-6:
                gamma = discrete_infsup(spec, square_level(level), MAT, p, gamma0_empty=gamma0_empty).gamma
                assert abs(gamma - ref) <= 1e-12 * ref

    # L+U entries of the saddle LU at p = 1 on build_square_mesh(2) with two
    # uniform refinements (128 triangles): 126 256 and 23 476 with diagonal
    # pivots, 756 404 and 106 180 with threshold pivoting at 1e-3
    FILL_BOUND = {"mixed": 2.0e5, "dualmixed": 4.0e4}

    @pytest.mark.parametrize("spec", sorted(FILL_BOUND))
    def test_saddle_lu_fill_bounded(self, spec, monkeypatch):
        fills, factor = [], infsup_lab._factor_checked

        def spy(A, what, **lu_options):
            lu = factor(A, what, **lu_options)
            fills.append(lu.nnz)
            return lu

        monkeypatch.setattr(infsup_lab, "_factor_checked", spy)
        m = uniform_refine(uniform_refine(build_square_mesh(2)))
        assert m.num_triangles == 128
        discrete_infsup(spec, m, MAT, 1)
        assert len(fills) == 1 and fills[0] <= self.FILL_BOUND[spec]


class TestAuxiliaryConstants:
    # on build_square_mesh(1) and two uniform refinements, p = 1, recorded
    # from the dense eigensolves that preceded the shift-invert ones
    RECORDED = [
        {"C_P": 1.0, "C_B": 0.809165543890565},
        {"C_P": 1.160889888938291, "C_B": 0.7429151274885525},
        {"C_P": 1.3619889572944661, "C_B": 0.6167150736139371},
    ]

    def test_matches_recorded(self):
        m = build_square_mesh(1)
        for rec in self.RECORDED:
            c = auxiliary_constants(m, 1)
            for key in ("C_P", "C_B"):
                assert abs(c[key] - rec[key]) <= 1e-10 * rec[key]
            m = uniform_refine(m)

    # p = 2 on the same meshes, recorded from the hand assembly of the two
    # pairs that preceded their descriptors
    RECORDED_P2 = [
        {"C_P": 1.272957209359628, "C_B": 0.7405824330405951},
        {"C_P": 1.3631808977651407, "C_B": 0.6420443576581992},
        {"C_P": 1.4209208479345576, "C_B": 0.5845008622515253},
    ]

    def test_matches_recorded_p2(self):
        m = build_square_mesh(1)
        for rec in self.RECORDED_P2:
            c = auxiliary_constants(m, 2)
            for key in ("C_P", "C_B"):
                assert abs(c[key] - rec[key]) <= 1e-10 * rec[key]
            m = uniform_refine(m)

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
    def test_pairing_matrix_is_sparse_on_free_trace_dofs(self):
        m = build_square_mesh(2)
        _, thm12 = trace_spaces(skeleton(m), 2)
        brok = broken_h1_space(m, 1)
        J = jump_pairing_matrix(brok, thm12)
        assert J.format == "csr"
        assert J.shape == (thm12.ndof - len(np.unique(thm12.constrained_dofs)), brok.ndof)

    @pytest.mark.parametrize("which", ["h1", "hdiv"])
    def test_forward_conforming_has_no_jump(self, report, which):
        assert report[which]["forward_max"] < 1e-10

    @pytest.mark.parametrize("which", ["h1", "hdiv"])
    def test_converse_broken_detected(self, report, which):
        assert report[which]["converse_min"] > 1e-3
