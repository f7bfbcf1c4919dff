import numpy as np
import pytest
from numpy.random import Generator, Philox

from entrodual import SpectralInterval, SymOperator, dense_gibbs, spectral_bounds
from entrodual.probes import ProbeBatch, draw_probes, probe_gibbs
from entrodual.problems import (MaxCutProblem, StrongPermSyncProblem,
                                WeakPermSyncProblem)


def make_batch(op, beta, probes, **kw):
    return probe_gibbs(op, beta, spectral_bounds(op), probes, **kw)


# The normalized functionals of X_hat = W W^T / mass, read back through the
# problems' stochastic gradients by adding their constraint targets.

def diag_estimate(batch):
    b = np.full(batch.n, 1.0 / batch.n)
    return MaxCutProblem(SymOperator.zeros(batch.n), b, 1.0).stochastic_gradient(batch) + b


def block_grams(batch, k):
    p = StrongPermSyncProblem(SymOperator.zeros(batch.n), batch.n // k, k, 1.0)
    return p.stochastic_gradient(batch) + np.eye(k) / batch.n


def ones_quadratics(batch, k):
    p = WeakPermSyncProblem(SymOperator.zeros(batch.n), batch.n // k, k, 1.0)
    return p.stochastic_gradient(batch)[1] + 1.0 / batch.n


class TestDrawProbes:
    def test_single_entry_sign(self):
        z = draw_probes(1, 1, seed=0, iteration=0)
        assert z[0, 0] in (-1.0, 1.0)

    def test_values_are_signs(self):
        z = draw_probes(37, 11, seed=5, iteration=2)
        assert set(np.unique(z)) <= {-1.0, 1.0}

    def test_second_moment_is_identity(self):
        z = draw_probes(8, 10_000, seed=1, iteration=0)
        emp = (z @ z.T) / z.shape[1]
        assert np.abs(emp - np.eye(8)).max() <= 0.05

    def test_deterministic(self):
        a = draw_probes(20, 9, seed=42, iteration=7)
        b = draw_probes(20, 9, seed=42, iteration=7)
        np.testing.assert_array_equal(a, b)

    def test_columns_split_by_counter(self):
        # column s must not depend on how many columns are drawn
        wide = draw_probes(16, 9, seed=3, iteration=4)
        narrow = draw_probes(16, 3, seed=3, iteration=4)
        np.testing.assert_array_equal(wide[:, :3], narrow)

    def test_iterations_decorrelated(self):
        a = draw_probes(64, 1, seed=0, iteration=0)
        b = draw_probes(64, 1, seed=0, iteration=1)
        assert np.any(a != b)

    @pytest.mark.parametrize("n, num, seed, iteration", [
        (1, 1, 0, 0), (2, 3, 1, 1), (37, 11, 5, 2), (400, 21, 2**100 + 7, 2**63),
    ])
    def test_column_is_numpy_philox_stream(self, n, num, seed, iteration):
        # column s is Generator(Philox(key=seed, counter=(0, 0, iteration, s))).integers(0, 2, n)
        z = draw_probes(n, num, seed=seed, iteration=iteration)
        for s in range(num):
            bg = Philox(key=seed, counter=[0, 0, iteration, s])
            bits = Generator(bg).integers(0, 2, size=n)
            np.testing.assert_array_equal(z[:, s], 2.0 * bits - 1.0)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            draw_probes(4, 0, seed=0, iteration=0)
        with pytest.raises(ValueError):
            draw_probes(0, 4, seed=0, iteration=0)


class TestProbeGibbs:
    def test_scalar_case(self):
        m = 1.7
        op = SymOperator.from_dense(np.array([[m]]))
        batch = make_batch(op, beta=3.0, probes=np.array([1.0]))
        w_true = np.exp(-1.5 * spectral_bounds(op).lo) * batch.images[0, 0]
        assert abs(w_true - np.exp(-3.0 * m / 2.0)) <= 1e-12
        est = diag_estimate(batch)
        np.testing.assert_allclose(est, [1.0], atol=1e-14)

    def test_diagonal_case(self):
        d = np.array([-1.0, 0.3, 2.0])
        op = SymOperator.from_dense(np.diag(d))
        z = np.array([1.0, -2.0, 0.5])
        batch = make_batch(op, beta=2.0, probes=z, tol=1e-12)
        unshifted = np.exp(-0.5 * 2.0 * spectral_bounds(op).lo) * batch.images
        np.testing.assert_allclose(unshifted[:, 0],
                                   np.exp(-d) * z, rtol=1e-10)

    def test_diag_estimate_near_dense_oracle(self):
        rng = np.random.default_rng(0)
        n, num = 16, 64
        a = rng.standard_normal((n, n))
        a = (a + a.T) / 2.0
        op = SymOperator.from_dense(a)
        beta = 1.5
        z = draw_probes(n, num, seed=11, iteration=0)
        batch = make_batch(op, beta, z)
        est = diag_estimate(batch)
        exact = np.diag(dense_gibbs(op, beta).density)
        assert np.abs(est - exact).sum() <= 3.0 / np.sqrt(num)

    def test_row_energies_and_mass(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((7, 7))
        op = SymOperator.from_dense((a + a.T) / 2.0)
        batch = make_batch(op, 1.3, draw_probes(7, 5, seed=0, iteration=0))
        w = batch.images
        np.testing.assert_allclose(batch.r, np.sum(w * w, axis=1), rtol=1e-14)
        assert batch.mass == pytest.approx(np.sum(w * w), rel=1e-14)

    def test_zero_mass_rejected(self):
        with pytest.raises(ValueError, match="mass"):
            ProbeBatch(np.zeros((3, 2)))

    def test_beta_positive(self):
        op = SymOperator.from_dense(np.eye(2))
        with pytest.raises(ValueError):
            probe_gibbs(op, 0.0, spectral_bounds(op), np.ones(2))

    @pytest.mark.parametrize("beta", [1e-6, 1e3])
    def test_extreme_beta_stays_finite(self, beta):
        # a lower end at or below the smallest eigenvalue keeps every image
        # no longer than its probe, so nothing overflows at either extreme
        rng = np.random.default_rng(12)
        a = rng.standard_normal((30, 30))
        op = SymOperator.from_dense((a + a.T) / 2.0)
        z = draw_probes(30, 16, seed=3, iteration=0)
        batch = make_batch(op, beta, z)
        assert np.all(np.isfinite(batch.images))
        assert 0.0 < batch.mass <= z.size * (1.0 + 1e-6)


class TestEstimateFunctional:
    """Diagonal, block Gram and block-sum functionals of one probe batch."""

    def test_single_probe_diag_sums_to_one(self):
        rng = np.random.default_rng(2)
        op = SymOperator.from_dense(np.diag(rng.standard_normal(6)))
        batch = make_batch(op, 1.0, draw_probes(6, 1, seed=0, iteration=0))
        est = diag_estimate(batch)
        w = batch.images[:, 0]
        np.testing.assert_allclose(est, w * w / (w @ w), atol=1e-15)
        assert abs(est.sum() - 1.0) <= 1e-14

    def test_full_block_gram_has_unit_trace(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 5))
        op = SymOperator.from_dense((a + a.T) / 2.0)
        batch = make_batch(op, 0.7, draw_probes(5, 8, seed=1, iteration=0))
        g = block_grams(batch, 5)[0]
        np.testing.assert_allclose(g, batch.images @ batch.images.T / batch.mass,
                                   atol=1e-14)
        assert abs(np.trace(g) - 1.0) <= 1e-12

    def test_blocks_near_dense_oracle(self):
        rng = np.random.default_rng(4)
        n, k, num = 16, 4, 256
        a = rng.standard_normal((n, n))
        a = (a + a.T) / 2.0
        op = SymOperator.from_dense(a)
        beta = 1.0
        batch = make_batch(op, beta, draw_probes(n, num, seed=7, iteration=0))
        dense = dense_gibbs(op, beta).density
        for i in range(4):
            est = block_grams(batch, k)[i]
            ref = dense[i * k:(i + 1) * k, i * k:(i + 1) * k]
            trace_norm = np.abs(np.linalg.eigvalsh(est - ref)).sum()
            assert trace_norm <= 0.2

    def test_ones_quadratic_matches_block_gram(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((12, 12))
        op = SymOperator.from_dense((a + a.T) / 2.0)
        batch = make_batch(op, 1.2, draw_probes(12, 16, seed=2, iteration=3))
        for i in range(4):
            g = block_grams(batch, 3)[i]
            q = ones_quadratics(batch, 3)[i]
            assert abs(q - np.ones(3) @ g @ np.ones(3) / 3.0) <= 1e-14


class TestEstimatorStatistics:
    def test_unnormalized_unbiasedness(self):
        # E[w o w] = diag(exp(-beta M)) column by column
        rng = np.random.default_rng(6)
        a = rng.standard_normal((6, 6))
        a = (a + a.T) / 2.0
        op = SymOperator.from_dense(a)
        beta = 1.0
        iv = spectral_bounds(op)
        reps = 5000
        vals = np.empty((reps, 6))
        for r in range(reps):
            z = draw_probes(6, 1, seed=100, iteration=r)
            batch = probe_gibbs(op, beta, iv, z, tol=1e-10)
            w = np.exp(-0.5 * beta * iv.lo) * batch.images[:, 0]
            vals[r] = w * w
        g = dense_gibbs(op, beta)
        truth = np.diag(g.density) * np.exp(g.log_partition)
        err = np.abs(vals.mean(axis=0) - truth)
        stderr = vals.std(axis=0, ddof=1) / np.sqrt(reps)
        assert np.all(err <= 3.0 * stderr)

    def test_concentration_rate(self):
        # median l1 error of the diag estimate halves (within slack) as S quadruples
        rng = np.random.default_rng(8)
        a = rng.standard_normal((16, 16))
        a = (a + a.T) / 2.0
        op = SymOperator.from_dense(a)
        beta = 1.0
        iv = spectral_bounds(op)
        exact = np.diag(dense_gibbs(op, beta).density)
        reps = 50
        medians = []
        for num in (16, 64, 256):
            errs = []
            for r in range(reps):
                z = draw_probes(16, num, seed=9, iteration=r)
                batch = probe_gibbs(op, beta, iv, z)
                est = diag_estimate(batch)
                errs.append(np.abs(est - exact).sum())
            medians.append(np.median(errs))
        for big, small in zip(medians, medians[1:]):
            ratio = big / small
            assert 2.0 / 1.5 <= ratio <= 2.0 * 1.5, medians

    def test_shift_invariance(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((8, 8))
        a = (a + a.T) / 2.0
        op = SymOperator.from_dense(a)
        iv = spectral_bounds(op)
        z = draw_probes(8, 5, seed=3, iteration=1)
        plain = probe_gibbs(op, 2.0, iv, z)
        shifted = probe_gibbs(op.folded(diag=np.full(8, 4.0)), 2.0,
                              SpectralInterval(iv.lo + 4.0, iv.hi + 4.0), z)
        for functional in (diag_estimate, lambda b: block_grams(b, 4)[1],
                           lambda b: ones_quadratics(b, 2)[0]):
            lhs = functional(plain)
            rhs = functional(shifted)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)
