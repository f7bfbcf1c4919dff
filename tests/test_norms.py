import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from entrodual.norms import (
    BLOCK_SPECTRAL,
    LINF,
    PAIR,
    dual_norm,
    matrix_sign,
    primal_norm,
    step_block,
    step_linf,
    step_pair,
)
from entrodual.operators import SymOperator
from entrodual.problems import MaxCutProblem


def sym_stack(rng, nblocks, k, scale=1.0):
    g = rng.standard_normal((nblocks, k, k)) * scale
    return (g + g.transpose(0, 2, 1)) / 2.0


def trace_norm(m):
    return np.abs(np.linalg.eigvalsh(m)).sum()


class TestNormValues:
    def test_pair_dual_example(self):
        assert dual_norm(PAIR, (np.array([1.0, -1.0]), np.array([2.0, 0.0]))) == 2.0

    def test_linf_dual_example(self):
        assert dual_norm(LINF, np.array([1.0, -2.0, 0.0])) == 3.0

    def test_linf_primal(self):
        assert primal_norm(LINF, np.array([1.0, -2.0, 0.0])) == 2.0

    def test_pair_primal(self):
        val = primal_norm(PAIR, (np.array([3.0]), np.array([-4.0, 1.0])))
        assert abs(val - np.sqrt(2.0 * 25.0)) <= 1e-14

    def test_block_norms(self):
        fam = BLOCK_SPECTRAL
        b = np.stack([np.diag([2.0, -1.0]), np.diag([0.5, 0.0])])
        assert primal_norm(fam, b) == 2.0
        assert abs(dual_norm(fam, b) - 3.5) <= 1e-14

    def test_block_shape_checks(self):
        fam = BLOCK_SPECTRAL
        asymmetric = np.array([[[0.0, 1.0], [0.0, 0.0]]] * 2)
        with pytest.raises(ValueError):
            dual_norm(fam, np.zeros((2, 2, 3)))
        with pytest.raises(ValueError):
            dual_norm(fam, asymmetric)
        # eigh reads one triangle too, so the step refuses what the norms refuse
        with pytest.raises(ValueError, match="symmetric"):
            fam.prepare(asymmetric)
        with pytest.raises(ValueError, match="symmetric"):
            step_block(np.zeros((2, 2, 2)), asymmetric, 0.1)

    def test_prepared_stack_serves_the_norms_and_the_step(self):
        rng = np.random.default_rng(8)
        g, lam = sym_stack(rng, 3, 4), sym_stack(rng, 3, 4)
        spec = BLOCK_SPECTRAL.prepare(g)
        assert BLOCK_SPECTRAL.prepare(spec) is spec
        assert LINF.prepare(g) is g and PAIR.prepare((g, g))[0] is g
        np.testing.assert_allclose((spec.vectors * spec.values[:, None, :])
                                   @ spec.vectors.transpose(0, 2, 1), g, atol=1e-14)
        for norm in (primal_norm, dual_norm):
            assert norm(BLOCK_SPECTRAL, spec) == pytest.approx(norm(BLOCK_SPECTRAL, g),
                                                               rel=1e-14)
        np.testing.assert_array_equal(step_block(lam, spec, 0.3), step_block(lam, g, 0.3))

    def test_diff_keeps_the_payload_shape(self):
        a, b = np.array([3.0, -1.0]), np.array([1.0, 2.0])
        np.testing.assert_array_equal(LINF.diff(a, b), [2.0, -3.0])
        du, dv = PAIR.diff((a, b), (b, a))
        np.testing.assert_array_equal(du, [2.0, -3.0])
        np.testing.assert_array_equal(dv, [-2.0, 3.0])
        stack = sym_stack(np.random.default_rng(7), 2, 3)
        np.testing.assert_array_equal(BLOCK_SPECTRAL.diff(stack, stack),
                                      np.zeros((2, 3, 3)))

    def test_block_dual_vs_brute_force(self):
        # random search over the primal unit ball never beats the closed form,
        # and the spectral-sign achiever attains it
        rng = np.random.default_rng(0)
        nblocks, k = 2, 3
        fam = BLOCK_SPECTRAL
        b = sym_stack(rng, nblocks, k)
        formula = dual_norm(fam, b)
        cand = sym_stack(rng, 100_000 * nblocks, k).reshape(100_000, nblocks, k, k)
        spec = np.abs(np.linalg.eigvalsh(cand)).max(axis=(1, 2))
        cand /= spec[:, None, None, None]
        pairings = np.einsum("rbij,bij->r", cand, b)
        assert pairings.max() <= formula + 1e-12
        achiever = matrix_sign(b)
        attained = np.einsum("bij,bij->", achiever, b)
        assert abs(attained - formula) <= 1e-9
        assert primal_norm(fam, achiever) <= 1.0 + 1e-12


class TestDualityInequality:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10_000))
    def test_linf(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        x, g = rng.standard_normal(n), rng.standard_normal(n)
        assert g @ x <= dual_norm(LINF, g) * primal_norm(LINF, x) + 1e-12
        ach = np.sign(g)
        assert abs(g @ ach - dual_norm(LINF, g)) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10_000))
    def test_pair(self, seed):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        x = (rng.standard_normal(m), rng.standard_normal(n))
        g = (rng.standard_normal(m), rng.standard_normal(n))
        pairing = g[0] @ x[0] + g[1] @ x[1]
        assert pairing <= dual_norm(PAIR, g) * primal_norm(PAIR, x) + 1e-12
        # achiever: scaled sign vectors with sup norms |a|_1 / s and |b|_1 / s
        sa, sb = np.abs(g[0]).sum(), np.abs(g[1]).sum()
        s = np.sqrt(2.0 * (sa * sa + sb * sb))
        if s > 0:
            ach = (sa * np.sign(g[0]) / s, sb * np.sign(g[1]) / s)
            attained = g[0] @ ach[0] + g[1] @ ach[1]
            assert abs(attained - dual_norm(PAIR, g)) <= 1e-9
            assert primal_norm(PAIR, ach) <= 1.0 + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000))
    def test_block(self, seed):
        rng = np.random.default_rng(seed)
        nblocks, k = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        fam = BLOCK_SPECTRAL
        x, g = sym_stack(rng, nblocks, k), sym_stack(rng, nblocks, k)
        pairing = np.einsum("bij,bij->", g, x)
        assert pairing <= dual_norm(fam, g) * primal_norm(fam, x) + 1e-12


class TestSteps:
    def test_linf_example(self):
        out = step_linf(np.zeros(3), np.array([1.0, -2.0, 0.0]), 0.5)
        np.testing.assert_allclose(out, [-1.5, 1.5, 0.0])

    def test_linf_zero_gradient(self):
        lam = np.array([1.0, 2.0])
        np.testing.assert_array_equal(step_linf(lam, np.zeros(2), 0.3), lam)

    def test_pair_example(self):
        (u, v) = step_pair((np.zeros(2), np.zeros(1)),
                           (np.array([1.0, 1.0]), np.zeros(1)), eta=1.0)
        np.testing.assert_allclose(u, [-1.0, -1.0])
        np.testing.assert_allclose(v, [0.0])

    def test_block_example(self):
        g = np.diag([1.0, -1.0])[None]
        out = step_block(np.zeros((1, 2, 2)), g, eta=1.0)
        np.testing.assert_allclose(out[0], -2.0 * np.diag([1.0, -1.0]), atol=1e-12)

    def test_block_zero_gradient(self):
        lam = sym_stack(np.random.default_rng(1), 2, 3)
        np.testing.assert_array_equal(step_block(lam, np.zeros_like(lam), 0.5), lam)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            step_linf(np.zeros(3), np.zeros(4), 0.1)
        with pytest.raises(ValueError):
            step_block(np.zeros((2, 2, 2)), np.zeros((1, 2, 2)), 0.1)
        with pytest.raises(ValueError):
            step_pair((np.zeros(2), np.zeros(3)), (np.zeros(2), np.zeros(2)), 0.1)


def model_value(pairing, step_norm, eta):
    return pairing + step_norm * step_norm / (2.0 * eta)


class TestStepIdentities:
    """Step length eta * |g|_* and model decrease -(eta/2) |g|_*^2 for every family."""

    def test_linf(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            n = int(rng.integers(1, 10))
            lam, g = rng.standard_normal(n), rng.standard_normal(n) / n
            eta = rng.uniform(0.05, 2.0)
            new = step_linf(lam, g, eta)
            delta = new - lam
            gd = dual_norm(LINF, g)
            assert abs(primal_norm(LINF, delta) - eta * gd) <= 1e-10
            assert abs(model_value(g @ delta, primal_norm(LINF, delta), eta)
                       + 0.5 * eta * gd * gd) <= 1e-10

    def test_pair(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            m, n = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            x = (rng.standard_normal(m), rng.standard_normal(n))
            g = (rng.standard_normal(m) / m, rng.standard_normal(n) / n)
            eta = rng.uniform(0.05, 2.0)
            new = step_pair(x, g, eta)
            delta = (new[0] - x[0], new[1] - x[1])
            gd = dual_norm(PAIR, g)
            assert abs(primal_norm(PAIR, delta) - eta * gd) <= 1e-10
            pairing = g[0] @ delta[0] + g[1] @ delta[1]
            assert abs(model_value(pairing, primal_norm(PAIR, delta), eta)
                       + 0.5 * eta * gd * gd) <= 1e-10

    def test_block(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            nblocks, k = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            fam = BLOCK_SPECTRAL
            lam = sym_stack(rng, nblocks, k)
            g = sym_stack(rng, nblocks, k, scale=1.0 / k)
            eta = rng.uniform(0.05, 2.0)
            new = step_block(lam, g, eta)
            delta = new - lam
            gd = dual_norm(fam, g)
            assert abs(primal_norm(fam, delta) - eta * gd) <= 1e-10
            pairing = np.einsum("bij,bij->", g, delta)
            assert abs(model_value(pairing, primal_norm(fam, delta), eta)
                       + 0.5 * eta * gd * gd) <= 1e-10


class TestMatrixSign:
    def test_diagonal(self):
        np.testing.assert_allclose(matrix_sign(np.diag([2.0, -3.0])),
                                   np.diag([1.0, -1.0]), atol=1e-14)

    def test_zero(self):
        np.testing.assert_array_equal(matrix_sign(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_pairing_gives_trace_norm(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            g = sym_stack(rng, 1, 5)[0]
            assert abs(np.sum(matrix_sign(g) * g) - trace_norm(g)) <= 1e-9

    @settings(max_examples=60, deadline=None)
    @given(arrays(np.float64, (4, 4), elements=st.floats(-5, 5)))
    @example(np.full((4, 4), 5e-324))
    def test_square_is_projector(self, raw):
        g = (raw + raw.T) / 2.0
        p = matrix_sign(g) @ matrix_sign(g)
        np.testing.assert_allclose(p @ p, p, atol=1e-9)
        rank = np.sum(np.abs(np.linalg.eigvalsh(g)) > 1e-12 * max(1e-300, np.abs(np.linalg.eigvalsh(g)).max()))
        assert abs(np.trace(p) - rank) <= 1e-9

    def test_dispatch(self):
        rng = np.random.default_rng(6)
        g = rng.standard_normal(4)
        # the sup-norm family's step is the one its problem takes
        p = MaxCutProblem(SymOperator.zeros(4), np.full(4, 0.25), 1.0)
        assert p.norm_family() == LINF
        np.testing.assert_array_equal(p.norm_family().step(np.zeros(4), g, 0.2),
                                      step_linf(np.zeros(4), g, 0.2))
        # each geometry's step is its module-level step
        pair = (rng.standard_normal(3), rng.standard_normal(5))
        gp = (rng.standard_normal(3), rng.standard_normal(5))
        for got, want in zip(PAIR.step(pair, gp, 0.3), step_pair(pair, gp, 0.3)):
            np.testing.assert_array_equal(got, want)
        lam, gb = sym_stack(rng, 2, 3), sym_stack(rng, 2, 3)
        np.testing.assert_array_equal(BLOCK_SPECTRAL.step(lam, gb, 0.3),
                                      step_block(lam, gb, 0.3))
