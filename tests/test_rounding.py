"""Rounding tests: exact feasibility, certified perturbation, end-to-end bounds."""

import math

import numpy as np
import pytest
from scipy.linalg import svdvals

from entrodual.operators import SymOperator, dense_gibbs
from entrodual.problems import MaxCutProblem, StrongPermSyncProblem
from entrodual.rounding import (RoundedPrimal, round_maxcut, round_ot,
                                round_strong_ps, triple_norm)
from entrodual.solver import SolverConfig, solve


def random_psd(n, rng, rank=None):
    g = rng.normal(size=(rank or n, n))
    return g.T @ g


def random_sym(n, rng):
    a = rng.normal(size=(n, n))
    return (a + a.T) / 2


def eigh_factor(x):
    """v with v.T @ v = x for PSD x, from an eigendecomposition, negatives clipped."""
    w, u = np.linalg.eigh((x + x.T) / 2)
    return np.sqrt(np.clip(w, 0.0, None))[:, None] * u.T


def reference_round_strong_ps(x, n_img, k):
    """The block rounding by per-block SVD: singular values of each column
    block of the factor thresholded at 1, then identity diagonal blocks."""
    v = eigh_factor(x)
    parts = []
    for i in range(n_img):
        u, s, vh = np.linalg.svd(v[:, i * k:(i + 1) * k], full_matrices=False)
        parts.append((u * np.minimum(s, 1.0)) @ vh)
    tilde = np.hstack(parts)
    out = tilde.T @ tilde
    out = (out + out.T) / 2
    for i in range(n_img):
        out[i * k:(i + 1) * k, i * k:(i + 1) * k] = np.eye(k)
    return out


def block_rounding_input(case, rng):
    """(x, N, K) in the identity-block frame for a named special case."""
    if case == "random":
        n_img, k, rank = int(rng.integers(1, 6)), int(rng.integers(1, 5)), None
    else:
        n_img, k, rank = {"one-by-one": (5, 1, None), "single-block": (1, 6, None),
                          "rank-deficient": (3, 3, 2),
                          "zero-eigenvalue": (3, 2, None)}[case]
    n = n_img * k
    g = rng.normal(size=(rank or n, n))
    if case == "zero-eigenvalue":
        g[:, k] = 0.0  # the second diagonal block gets an exact 0 eigenvalue
    x = g.T @ g
    return x * rng.uniform(0.2, 2.0) * n / np.trace(x), n_img, k


class TestRoundOT:
    def test_feasible_plan_unchanged(self):
        rng = np.random.default_rng(2)
        pi = rng.uniform(0.1, 1.0, (4, 5))
        pi /= pi.sum()
        out = round_ot(pi, pi.sum(axis=1), pi.sum(axis=0))
        assert np.abs(out.payload - pi).max() < 1e-15
        assert out.measured_shift <= out.perturbation_certificate + 1e-12
        assert out.perturbation_certificate < 1e-12

    @pytest.mark.parametrize("mass", [0.3, 1.0, 2.5])
    def test_singleton_forced_to_one(self, mass):
        out = round_ot(np.array([[mass]]), np.array([1.0]), np.array([1.0]))
        assert out.payload == pytest.approx(np.array([[1.0]]))

    def test_random_plan_marginals_exact_and_certified(self):
        rng = np.random.default_rng(3)
        pi = rng.uniform(0.0, 1.0, (6, 9))
        pi /= pi.sum() * 0.9
        mu = rng.dirichlet(np.ones(6))
        nu = rng.dirichlet(np.ones(9))
        out = round_ot(pi, mu, nu)
        assert np.abs(out.payload.sum(axis=1) - mu).max() < 1e-12
        assert np.abs(out.payload.sum(axis=0) - nu).max() < 1e-12
        assert np.all(out.payload >= 0.0)
        assert out.measured_shift <= out.perturbation_certificate + 1e-12

    def test_zero_row_uses_unit_scale(self):
        pi = np.array([[0.0, 0.0], [0.3, 0.3]])
        mu = np.array([0.5, 0.5])
        nu = np.array([0.5, 0.5])
        out = round_ot(pi, mu, nu)
        assert np.abs(out.payload.sum(axis=1) - mu).max() < 1e-12
        assert np.abs(out.payload.sum(axis=0) - nu).max() < 1e-12

    def test_objective_shift_bounded_by_unit_cost_certificate(self):
        rng = np.random.default_rng(4)
        for scale in [1.0, 10.0] * 15:
            pi = rng.uniform(0.0, 1.0, (5, 4))
            pi /= pi.sum() * rng.uniform(0.8, 1.25)
            mu = rng.dirichlet(np.ones(5))
            nu = rng.dirichlet(np.ones(4))
            cost = scale * rng.uniform(0.0, 1.0, (5, 4))
            out = round_ot(pi, mu, nu, cost=cost)
            err = np.abs(pi.sum(axis=1) - mu).sum() + np.abs(pi.sum(axis=0) - nu).sum()
            assert out.perturbation_certificate == pytest.approx(
                2 * err * np.abs(cost).max(), rel=0, abs=1e-12)
            assert out.measured_shift <= out.perturbation_certificate + 1e-10

    def test_certificate_in_objective_units(self):
        # 0.4 of mass leaves the cost-10 entry, an objective shift of 4,
        # while the plan's l1 movement is bounded by 1.6
        out = round_ot(np.array([[0.5, 0.5]]), np.array([1.0]),
                       np.array([0.9, 0.1]), cost=np.array([[0.0, 10.0]]))
        assert out.measured_shift == pytest.approx(4.0)
        assert out.measured_shift <= out.perturbation_certificate

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            round_ot(np.array([[-0.1, 0.5], [0.3, 0.3]]),
                     np.array([0.5, 0.5]), np.array([0.5, 0.5]))

    @pytest.mark.parametrize("name", ["plan", "mu", "nu", "cost"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_input_rejected(self, name, bad):
        # a NaN plan entry once came back as a NaN payload and NaN certificate
        args = {"plan": np.full((2, 2), 0.25), "mu": np.array([0.5, 0.5]),
                "nu": np.array([0.5, 0.5]), "cost": np.ones((2, 2))}
        args[name][-1] = bad
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            round_ot(args["plan"], args["mu"], args["nu"], cost=args["cost"])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="m x n"):
            round_ot(np.ones((2, 2)) / 4, np.array([0.5, 0.5]),
                     np.array([0.3, 0.3, 0.4]))


class TestRoundUnitDiag:
    """Unit diagonal is block rounding with 1 x 1 blocks."""

    def test_deflate_then_lift_by_hand(self):
        # diagonal (2, 0.5): index 0 deflates to 1, index 1 lifts to 1
        x = np.array([[2.0, 0.0], [0.0, 0.5]])
        out = round_strong_ps(x, 2, 1)
        assert np.abs(out.payload - np.eye(2)).max() < 1e-12
        assert out.perturbation_certificate == pytest.approx(3.0 * 1.5)

    def test_unit_diagonal_fixed_point(self):
        rng = np.random.default_rng(5)
        x = random_psd(6, rng)
        d = 1.0 / np.sqrt(np.diag(x))
        x = x * np.outer(d, d)
        out = round_strong_ps(x, 6, 1)
        assert np.abs(out.payload - x).max() < 1e-10


class TestRoundMaxCut:
    def test_already_feasible_diag_unchanged(self):
        b = np.array([0.2, 0.3, 0.5])
        a = np.eye(3)
        out = round_maxcut(np.diag(b), b, a)
        assert np.abs(out.payload - np.diag(b)).max() < 1e-14
        assert out.perturbation_certificate == 0.0
        assert out.measured_shift <= 1e-14

    def test_scaled_frame_example(self):
        # frame matrix diag(4, 1) deflates to the identity, lifts back to diag(b)
        x = np.array([[2.0, 0.0], [0.0, 0.5]])
        b = np.array([0.5, 0.5])
        out = round_maxcut(x, b, np.eye(2))
        assert np.abs(out.payload - np.diag(b)).max() < 1e-12

    def test_exact_diagonal_and_psd(self):
        rng = np.random.default_rng(6)
        for trial in range(25):
            n = int(rng.integers(2, 12))
            x = random_psd(n, rng)
            x /= np.trace(x)
            b = rng.dirichlet(np.ones(n))
            out = round_maxcut(x, b, random_sym(n, rng))
            assert np.array_equal(np.diag(out.payload), b)
            assert np.array_equal(out.payload, out.payload.T)
            assert np.linalg.eigvalsh(out.payload).min() >= -1e-10

    def test_certificate_never_violated(self):
        rng = np.random.default_rng(7)
        for trial in range(60):
            n = int(rng.integers(2, 10))
            x = random_psd(n, rng, rank=int(rng.integers(1, n + 1)))
            x /= np.trace(x)
            b = rng.dirichlet(np.ones(n) * 5.0)
            a = random_sym(n, rng)
            out = round_maxcut(x, b, a)
            assert out.measured_shift <= out.perturbation_certificate + 1e-8

    def test_certificate_formula(self):
        rng = np.random.default_rng(8)
        x = random_psd(5, rng)
        x /= np.trace(x)
        b = rng.dirichlet(np.ones(5) * 3.0)
        a = random_sym(5, rng)
        out = round_maxcut(x, b, a)
        delta = np.abs(np.diag(x) - b).sum()
        kappa = b.max() / b.min()
        infn = np.abs(a).sum(axis=1).max()
        assert out.perturbation_certificate == pytest.approx(3 * kappa * delta * infn)

    def test_uniform_b_is_unit_block_rounding(self):
        rng = np.random.default_rng(16)
        for trial in range(20):
            n = int(rng.integers(1, 12))
            x = random_psd(n, rng, rank=int(rng.integers(1, n + 1)))
            x /= np.trace(x)
            out = round_maxcut(x, np.full(n, 1.0 / n), random_sym(n, rng))
            want = round_strong_ps(n * x, n, 1).payload / n
            np.testing.assert_allclose(out.payload, want, rtol=0.0, atol=1e-14)

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError, match="not numerically PSD"):
            round_maxcut(np.array([[1.0, 2.0], [2.0, 1.0]]),
                         np.array([0.5, 0.5]), np.eye(2))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            round_maxcut(np.array([[0.5, 0.5], [0.0, 0.5]]),
                         np.array([0.5, 0.5]), np.eye(2))

    @pytest.mark.parametrize("name", ["matrix", "b", "objective matrix"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_input_rejected(self, name, bad):
        # one NaN off-diagonal entry once gave a NaN payload with certificate 0
        args = {"matrix": np.eye(2) / 2, "b": np.array([0.5, 0.5]),
                "objective matrix": np.eye(2)}
        args[name].flat[1] = bad
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            round_maxcut(args["matrix"], args["b"], args["objective matrix"])

    def test_nonpositive_b_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            round_maxcut(np.eye(2) / 2, np.array([1.0, 0.0]), np.eye(2))


class TestTripleNorm:
    def test_identity(self):
        assert triple_norm(np.eye(6), 3, 2) == pytest.approx(1.0)

    def test_single_off_diagonal_pair(self):
        a = np.zeros((6, 6))
        a[0:2, 2:4] = 3.0 * np.eye(2)
        a[2:4, 0:2] = 3.0 * np.eye(2)
        assert triple_norm(a, 3, 2) == pytest.approx(3.0)

    def test_matches_blockwise_svd_oracle(self):
        rng = np.random.default_rng(9)
        # general blocks, 1 x 1 blocks, and a single block
        for n_img, k in [(4, 3), (5, 1), (1, 4)]:
            a = random_sym(n_img * k, rng)
            best = 0.0
            for i in range(n_img):
                total = 0.0
                for j in range(n_img):
                    blk = a[i * k:(i + 1) * k, j * k:(j + 1) * k]
                    total += svdvals(blk)[0]
                best = max(best, total)
            assert triple_norm(a, n_img, k) == pytest.approx(best, rel=1e-12)

    def test_bad_tiling_rejected(self):
        with pytest.raises(ValueError, match="tile"):
            triple_norm(np.eye(6), 4, 2)


class TestRoundStrongPS:
    def test_feasible_input_unchanged(self):
        rng = np.random.default_rng(10)
        n_img, k = 3, 2
        # orthonormal column blocks give identity diagonal blocks exactly
        q, _ = np.linalg.qr(rng.normal(size=(n_img * k, n_img * k)))
        x = np.zeros((n_img * k, n_img * k))
        for i in range(n_img):
            zi = q[:, i * k:(i + 1) * k]
            for j in range(n_img):
                zj = q[:, j * k:(j + 1) * k]
                x[i * k:(i + 1) * k, j * k:(j + 1) * k] = zi.T @ zj
        out = round_strong_ps(x, n_img, k)
        assert np.abs(out.payload - x).max() < 1e-10

    @pytest.mark.parametrize("case", ["one-by-one", "single-block",
                                      "rank-deficient", "zero-eigenvalue",
                                      "random"])
    def test_matches_per_block_svd_reference(self, case):
        rng = np.random.default_rng(17)
        for trial in range(20 if case == "random" else 3):
            x, n_img, k = block_rounding_input(case, rng)
            out = round_strong_ps(x, n_img, k)
            assert np.array_equal(out.payload, out.payload.T)
            np.testing.assert_allclose(out.payload,
                                       reference_round_strong_ps(x, n_img, k),
                                       rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("block_size", [1, 2])
    def test_small_negative_eigenvalue_shifted_out(self, block_size):
        # identity diagonal blocks of rank 2, less 1e-12 along the null space:
        # resetting the blocks to I without the shift leaves about -1e-12
        rng = np.random.default_rng(18)
        g = np.hstack([np.linalg.qr(rng.normal(size=(2, 2)))[0] for _ in range(2)])
        null = np.linalg.svd(g)[2][-1]
        x = g.T @ g - 1e-12 * np.outer(null, null)
        assert np.linalg.eigvalsh(x).min() < -0.9e-12
        out = round_strong_ps(x, 4 // block_size, block_size)
        assert np.linalg.eigvalsh(out.payload).min() >= -1e-15 * np.abs(x).max()

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError, match="not numerically PSD"):
            round_strong_ps(np.array([[1.0, 2.0], [2.0, 1.0]]), 2, 1)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            round_strong_ps(np.array([[1.0, 1.0], [0.0, 1.0]]), 2, 1)

    @pytest.mark.parametrize("name", ["matrix", "objective matrix"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_input_rejected(self, name, bad):
        # one NaN off-diagonal entry once gave a NaN payload with certificate 0
        args = {"matrix": np.eye(4), "objective matrix": np.eye(4)}
        args[name][0, 3] = bad
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            round_strong_ps(args["matrix"], 2, 2, a=args["objective matrix"])

    def test_scalar_thresholded(self):
        out = round_strong_ps(np.array([[4.0]]), 1, 1)
        assert out.payload == pytest.approx(np.array([[1.0]]))

    def test_near_feasible_random(self):
        rng = np.random.default_rng(11)
        n_img, k = 3, 4
        n = n_img * k
        base = np.eye(n) + 0.08 * random_sym(n, rng)
        x = eigh_factor(base)
        x = x.T @ x
        a = random_sym(n, rng)
        out = round_strong_ps(x, n_img, k, a=a)
        for i in range(n_img):
            blk = out.payload[i * k:(i + 1) * k, i * k:(i + 1) * k]
            assert np.array_equal(blk, np.eye(k))
        assert np.linalg.eigvalsh(out.payload).min() >= -1e-10
        assert out.measured_shift <= out.perturbation_certificate + 1e-8

    def test_certificate_never_violated(self):
        rng = np.random.default_rng(12)
        for trial in range(60):
            n_img = int(rng.integers(1, 5))
            k = int(rng.integers(1, 4))
            n = n_img * k
            x = random_psd(n, rng, rank=int(rng.integers(1, n + 1)))
            x *= rng.uniform(0.2, 2.0) / max(np.trace(x), 1e-12) * n
            a = random_sym(n, rng)
            out = round_strong_ps(x, n_img, k, a=a)
            assert out.measured_shift <= out.perturbation_certificate + 1e-8

    def test_certificate_formula(self):
        rng = np.random.default_rng(13)
        n_img, k = 2, 3
        x = random_psd(n_img * k, rng)
        a = random_sym(n_img * k, rng)
        out = round_strong_ps(x, n_img, k, a=a)
        delta = sum(
            np.abs(np.linalg.eigvalsh(x[i * k:(i + 1) * k, i * k:(i + 1) * k]
                                      - np.eye(k))).sum()
            for i in range(n_img))
        assert out.perturbation_certificate == pytest.approx(
            (2 * k + 1) * delta * triple_norm(a, n_img, k))


class TestEndToEnd:
    def test_objective_gap_bound_maxcut(self):
        # rounded long-run reference at stiff regularization stands in for the optimum
        rng = np.random.default_rng(14)
        n, beta = 8, 20.0
        c_dense = random_sym(n, rng)
        b = np.full(n, 1.0 / n)
        problem = MaxCutProblem(SymOperator.from_dense(c_dense), b, beta)

        ref_problem = MaxCutProblem(SymOperator.from_dense(c_dense), b, 1000.0)
        ref = solve(ref_problem, SolverConfig(iters=4000, dense_oracle=True))
        x_ref = dense_gibbs(ref_problem.shifted_operator(ref.best_dual),
                            1000.0).density
        p_star = float(np.sum(c_dense * round_maxcut(x_ref, b, c_dense).payload))

        tr = solve(problem, SolverConfig(iters=600, dense_oracle=True))
        x = dense_gibbs(problem.shifted_operator(tr.best_dual), beta).density
        delta = np.abs(np.diag(x) - b).sum()
        out = round_maxcut(x, b, c_dense)
        gap = float(np.sum(c_dense * out.payload)) - p_star
        kappa = 1.0
        infn = np.abs(c_dense).sum(axis=1).max()
        assert gap <= 6 * kappa * delta * infn + math.log(n) / beta + 1e-8

    def test_objective_gap_bound_strong_ps(self):
        rng = np.random.default_rng(15)
        n_img, k, beta = 3, 2, 10.0
        n = n_img * k
        c_dense = random_sym(n, rng)
        problem = StrongPermSyncProblem(SymOperator.from_dense(c_dense),
                                        n_img, k, beta)

        ref_problem = StrongPermSyncProblem(SymOperator.from_dense(c_dense),
                                            n_img, k, 400.0)
        ref = solve(ref_problem, SolverConfig(iters=4000, dense_oracle=True))
        x_ref = dense_gibbs(ref_problem.shifted_operator(ref.best_dual),
                            400.0).density
        x_ref_rounded = round_strong_ps(n * x_ref, n_img, k).payload / n
        p_star = float(np.sum(c_dense * x_ref_rounded))

        tr = solve(problem, SolverConfig(iters=800, dense_oracle=True))
        x = dense_gibbs(problem.shifted_operator(tr.best_dual), beta).density
        delta = sum(
            np.abs(np.linalg.eigvalsh(x[i * k:(i + 1) * k, i * k:(i + 1) * k]
                                      - np.eye(k) / n)).sum()
            for i in range(n_img))
        x_rounded = round_strong_ps(n * x, n_img, k).payload / n
        gap = float(np.sum(c_dense * x_rounded)) - p_star
        bound = (4 * k + 2) * delta * triple_norm(c_dense, n_img, k)
        assert gap <= bound + math.log(n) / beta + 1e-8

    def test_rounded_primal_record(self):
        out = RoundedPrimal(payload=np.eye(2), perturbation_certificate=0.5,
                            measured_shift=0.1)
        assert out.measured_shift <= out.perturbation_certificate
