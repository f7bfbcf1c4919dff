import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import minimize

from entrodual import (SolverConfig, SymOperator, certify_gradient_decay,
                       dense_gibbs, gen_er_maxcut, solve, spectral_bounds)
from entrodual.norms import dual_norm, primal_norm
from entrodual.probes import draw_probes, probe_gibbs
from entrodual.problems import (
    MaxCutProblem,
    OTProblem,
    StrongPermSyncProblem,
    WeakPermSyncProblem,
)


def random_maxcut(rng, n, beta=2.0, uniform_b=True):
    a = rng.standard_normal((n, n))
    a = (a + a.T) / 2.0
    if uniform_b:
        b = np.full(n, 1.0 / n)
    else:
        b = rng.uniform(0.5, 2.0, n)
        b /= b.sum()
        b = b + (1.0 - b.sum())  # absorb rounding into one entry
        b[0] += 1.0 - b.sum()
    return MaxCutProblem(SymOperator.from_dense(a), b, beta)


def random_ot(rng, m, n, beta=3.0, cost_scale=1.0):
    c = rng.uniform(0.0, cost_scale, (m, n))
    mu = rng.uniform(0.5, 1.5, m)
    nu = rng.uniform(0.5, 1.5, n)
    return OTProblem(c, mu / mu.sum(), nu / nu.sum(), beta)


def random_strong(rng, nb, k, beta=2.0):
    n = nb * k
    a = rng.standard_normal((n, n))
    return StrongPermSyncProblem(SymOperator.from_dense((a + a.T) / 2.0), nb, k, beta)


def random_weak(rng, nb, k, beta=2.0):
    n = nb * k
    a = rng.standard_normal((n, n))
    return WeakPermSyncProblem(SymOperator.from_dense((a + a.T) / 2.0), nb, k, beta)


def sym_stack(rng, nb, k, scale=1.0):
    g = rng.standard_normal((nb, k, k)) * scale
    return (g + g.transpose(0, 2, 1)) / 2.0


class TestValidation:
    def test_maxcut_b_checks(self):
        op = SymOperator.zeros(3)
        with pytest.raises(ValueError):
            MaxCutProblem(op, np.array([0.5, 0.5, 0.0]), 1.0)
        with pytest.raises(ValueError):
            MaxCutProblem(op, np.array([0.5, 0.6, 0.2]), 1.0)
        p = MaxCutProblem(op, np.array([0.5, 0.25, 0.25]), 1.0)
        assert p.kappa == 2.0

    def test_ot_marginal_checks(self):
        c = np.zeros((2, 2))
        with pytest.raises(ValueError):
            OTProblem(c, np.array([1.0, 0.0]), np.array([0.5, 0.5]), 1.0)
        with pytest.raises(ValueError):
            OTProblem(c, np.array([0.7, 0.7]), np.array([0.5, 0.5]), 1.0)
        p = OTProblem(np.array([[3.0, -1.0]]), np.array([1.0]),
                      np.array([0.25, 0.75]), 2.0)
        assert p.cost_bound == 3.0 and p.marginal_floor == 0.25

    def test_block_structure_checks(self):
        with pytest.raises(ValueError):
            StrongPermSyncProblem(SymOperator.zeros(5), 2, 2, 1.0)
        with pytest.raises(ValueError):
            WeakPermSyncProblem(SymOperator.zeros(4), 2, 2, -1.0)


class TestOTGradient:
    def test_singleton_forced_plan(self):
        p = OTProblem(np.array([[2.0]]), np.array([1.0]), np.array([1.0]), 1.5)
        g = p.dense_eval((np.zeros(1), np.zeros(1)))[0]
        np.testing.assert_allclose(g[0], [0.0], atol=1e-15)
        np.testing.assert_allclose(g[1], [0.0], atol=1e-15)

    def test_symmetric_instance_stationary_at_zero(self):
        p = OTProblem(np.zeros((3, 3)), np.full(3, 1 / 3), np.full(3, 1 / 3), 2.0)
        g = p.dense_eval(p.initial_dual())[0]
        np.testing.assert_allclose(g[0], 0.0, atol=1e-15)
        np.testing.assert_allclose(g[1], 0.0, atol=1e-15)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        p = random_ot(rng, 5, 7)
        phi = rng.standard_normal(5) * 0.3
        psi = rng.standard_normal(7) * 0.3
        gp, gq = p.dense_eval((phi, psi))[0]
        h = 1e-5
        for i in range(5):
            e = np.zeros(5)
            e[i] = h
            fd = (p.dense_eval((phi + e, psi))[1]
                  - p.dense_eval((phi - e, psi))[1]) / (2 * h)
            assert abs(fd - gp[i]) <= 1e-6
        for j in range(7):
            e = np.zeros(7)
            e[j] = h
            fd = (p.dense_eval((phi, psi + e))[1]
                  - p.dense_eval((phi, psi - e))[1]) / (2 * h)
            assert abs(fd - gq[j]) <= 1e-6

    def test_extreme_beta_stable(self):
        # stabilization keeps the plan finite at huge beta and large potentials
        rng = np.random.default_rng(1)
        p = random_ot(rng, 4, 4, beta=500.0, cost_scale=10.0)
        g = p.dense_eval((np.full(4, 40.0), np.full(4, -40.0)))[0]
        assert np.all(np.isfinite(g[0])) and np.all(np.isfinite(g[1]))
        pi = p.plan((np.full(4, 40.0), np.full(4, -40.0)))
        assert abs(pi.sum() - 1.0) <= 1e-12


class TestOTObjective:
    def test_singleton_constant(self):
        p = OTProblem(np.array([[0.8]]), np.array([1.0]), np.array([1.0]), 2.0)
        vals = [p.dense_eval((np.array([a]), np.array([b])))[1]
                for a, b in [(0.0, 0.0), (3.0, -1.0), (-7.0, 2.5)]]
        # exact cancellation: the objective does not depend on the potentials
        assert max(vals) - min(vals) <= 1e-12
        assert abs(vals[0] - (-0.8)) <= 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        p = random_ot(rng, 4, 6)
        phi, psi = rng.standard_normal(4), rng.standard_normal(6)
        base = p.dense_eval((phi, psi))[1]
        for a in (0.5, -3.0, 11.0):
            shifted = p.dense_eval((phi + a, psi - a))[1]
            assert abs(shifted - base) <= 1e-10

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(3)
        p = random_ot(rng, 3, 4, beta=0.7)
        phi, psi = rng.standard_normal(3), rng.standard_normal(4)
        direct = -(p.mu @ phi + p.nu @ psi) + np.log(
            np.exp(-p.beta * (p.cost - phi[:, None] - psi[None, :])).sum()) / p.beta
        assert abs(p.dense_eval((phi, psi))[1] - direct) <= 1e-10


class TestSDPExactGradient:
    def test_maxcut_zero_cost(self):
        p = MaxCutProblem(SymOperator.zeros(4), np.full(4, 0.25), 2.0)
        np.testing.assert_allclose(p.dense_eval(p.initial_dual())[0],
                                   0.0, atol=1e-14)

    def test_strong_zero_cost(self):
        p = StrongPermSyncProblem(SymOperator.zeros(6), 2, 3, 1.0)
        g = p.dense_eval(p.initial_dual())[0]
        np.testing.assert_allclose(g, 0.0, atol=1e-14)

    def test_maxcut_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        p = random_maxcut(rng, 10)
        lam = rng.standard_normal(10) * 0.2
        g = p.dense_eval(lam)[0]
        h = 1e-5
        for i in range(10):
            e = np.zeros(10)
            e[i] = h
            fd = (p.dense_eval(lam + e)[1] - p.dense_eval(lam - e)[1]) / (2 * h)
            assert abs(fd - g[i]) <= 1e-6

    def test_strong_matches_directional_derivative(self):
        rng = np.random.default_rng(5)
        p = random_strong(rng, 2, 3)
        lam = sym_stack(rng, 2, 3, 0.2)
        g = p.dense_eval(lam)[0]
        h = 1e-5
        for _ in range(6):
            d = sym_stack(rng, 2, 3)
            fd = (p.dense_eval(lam + h * d)[1]
                  - p.dense_eval(lam - h * d)[1]) / (2 * h)
            assert abs(fd - np.einsum("bij,bij->", g, d)) <= 1e-6

    def test_weak_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        p = random_weak(rng, 3, 2)
        lam = rng.standard_normal(6) * 0.2
        mu = rng.standard_normal(3) * 0.2
        gl, gm = p.dense_eval((lam, mu))[0]
        h = 1e-5
        for i in range(6):
            e = np.zeros(6)
            e[i] = h
            fd = (p.dense_eval((lam + e, mu))[1]
                  - p.dense_eval((lam - e, mu))[1]) / (2 * h)
            assert abs(fd - gl[i]) <= 1e-6
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd = (p.dense_eval((lam, mu + e))[1]
                  - p.dense_eval((lam, mu - e))[1]) / (2 * h)
            assert abs(fd - gm[i]) <= 1e-6

    @pytest.mark.parametrize("kind", ["maxcut", "ps-strong", "ps-weak"])
    def test_shared_read_matches_dense_functionals(self, kind):
        # the exact gradient is read from the Gibbs factor; read it again here
        # from the dense state, entry by entry, as an independent reference
        rng = np.random.default_rng(31)
        nb, k = 4, 3
        n = nb * k
        if kind == "maxcut":
            p = random_maxcut(rng, n, uniform_b=False)
            lam = rng.standard_normal(n)
        elif kind == "ps-strong":
            p = random_strong(rng, nb, k)
            lam = sym_stack(rng, nb, k)
        else:
            p = random_weak(rng, nb, k)
            lam = (rng.standard_normal(n), rng.standard_normal(nb))
        grad, _ = p.dense_eval(lam)
        x = dense_gibbs(p.shifted_operator(lam), p.beta).density
        blocks = np.einsum("ikil->ikl", x.reshape(nb, k, nb, k))
        if kind == "maxcut":
            pairs = [(grad, np.diag(x) - p.b)]
        elif kind == "ps-strong":
            pairs = [(grad, blocks - np.eye(k) / n)]
        else:
            pairs = [(grad[0], np.diag(x) - 1.0 / n),
                     (grad[1], blocks.sum(axis=(1, 2)) / k - 1.0 / n)]
        for got, want in pairs:
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)

    def test_dense_limit_error(self):
        p = MaxCutProblem(SymOperator.zeros(8), np.full(8, 0.125), 1.0)
        with pytest.raises(ValueError, match="probe"):
            p.dense_eval(p.initial_dual(), limit=4)

    def test_objective_matches_expm_oracle(self):
        rng = np.random.default_rng(7)
        p = random_maxcut(rng, 6)
        lam = rng.standard_normal(6) * 0.3
        m = p.shifted_operator(lam).to_dense()
        ref = -p.b @ lam + np.log(np.trace(expm(-p.beta * m))) / p.beta
        assert abs(p.dense_eval(lam)[1] - ref) <= 1e-10


class TestSDPStochasticGradient:
    def test_large_sample_limit(self):
        rng = np.random.default_rng(8)
        p = random_maxcut(rng, 12, beta=1.0)
        lam = rng.standard_normal(12) * 0.1
        op = p.shifted_operator(lam)
        batch = probe_gibbs(op, p.beta, spectral_bounds(op),
                            draw_probes(12, 4096, seed=0, iteration=0))
        est = p.stochastic_gradient(batch)
        exact = p.dense_eval(lam)[0]
        assert np.abs(est - exact).sum() <= 0.05

    def test_identity_state_exact_for_diag(self):
        # at C=0 the probe images are the probes themselves and z*z = 1,
        # so the diagonal estimate is exactly uniform
        p = MaxCutProblem(SymOperator.zeros(9), np.full(9, 1.0 / 9), 2.0)
        op = p.shifted_operator(p.initial_dual())
        batch = probe_gibbs(op, p.beta, spectral_bounds(op),
                            draw_probes(9, 16, seed=1, iteration=0))
        np.testing.assert_allclose(p.stochastic_gradient(batch), 0.0,
                                   atol=1e-14)

    def test_strong_blocks_shrink_with_samples(self):
        p = StrongPermSyncProblem(SymOperator.zeros(12), 4, 3, 1.0)
        op = p.shifted_operator(p.initial_dual())
        iv = spectral_bounds(op)
        errs = []
        for num in (32, 512):
            vals = []
            for rep in range(20):
                batch = probe_gibbs(op, p.beta, iv,
                                    draw_probes(12, num, seed=2, iteration=rep))
                vals.append(p.feasibility_error(p.stochastic_gradient(batch)))
            errs.append(np.median(vals))
        assert errs[1] <= errs[0] / 2.0

    def test_single_probe_singleton(self):
        p = MaxCutProblem(SymOperator.zeros(1), np.array([1.0]), 1.0)
        op = p.shifted_operator(p.initial_dual())
        batch = probe_gibbs(op, 1.0, spectral_bounds(op),
                            draw_probes(1, 1, seed=0, iteration=0))
        np.testing.assert_allclose(p.stochastic_gradient(batch), [0.0],
                                   atol=1e-15)

    def test_block_estimates_match_functional_api(self):
        rng = np.random.default_rng(9)
        p = random_strong(rng, 3, 2, beta=0.8)
        lam = sym_stack(rng, 3, 2, 0.1)
        op = p.shifted_operator(lam)
        batch = probe_gibbs(op, p.beta, spectral_bounds(op),
                            draw_probes(6, 32, seed=3, iteration=1))
        grad = p.stochastic_gradient(batch)
        for i in range(3):
            rows = batch.images[2 * i:2 * (i + 1)]
            block = rows @ rows.T / batch.mass
            np.testing.assert_allclose(grad[i], block - np.eye(2) / 6.0, atol=1e-13)

    def test_dimension_mismatch(self):
        p = random_maxcut(np.random.default_rng(10), 5)
        op = SymOperator.zeros(4)
        batch = probe_gibbs(op, 1.0, spectral_bounds(op),
                            draw_probes(4, 2, seed=0, iteration=0))
        with pytest.raises(ValueError):
            p.stochastic_gradient(batch)


class TestUpdateAndFeasibility:
    def test_ot_update_centers(self):
        rng = np.random.default_rng(11)
        p = random_ot(rng, 4, 5)
        duals = (rng.standard_normal(4), rng.standard_normal(5))
        grad = p.dense_eval(duals)[0]
        phi, psi = p.update(duals, grad, eta=0.3)
        assert abs(phi.sum()) <= 1e-12 and abs(psi.sum()) <= 1e-12

    def test_zero_gradient_fixpoint(self):
        rng = np.random.default_rng(12)
        p = random_ot(rng, 3, 3)
        duals = (rng.standard_normal(3), rng.standard_normal(3))
        duals = (duals[0] - duals[0].mean(), duals[1] - duals[1].mean())
        out = p.update(duals, (np.zeros(3), np.zeros(3)), eta=0.5)
        np.testing.assert_allclose(out[0], duals[0], atol=1e-14)
        np.testing.assert_allclose(out[1], duals[1], atol=1e-14)

    def test_maxcut_delegates_to_step_linf(self):
        from entrodual.norms import step_linf
        rng = np.random.default_rng(13)
        p = random_maxcut(rng, 6)
        lam, g = rng.standard_normal(6), rng.standard_normal(6)
        np.testing.assert_array_equal(p.update(lam, g, 0.2),
                                      step_linf(lam, g, 0.2))

    def test_feasible_state_zero(self):
        p = random_maxcut(np.random.default_rng(14), 4)
        assert p.feasibility_error(np.zeros(4)) == 0.0

    def test_maxcut_metric_is_l1(self):
        p = random_maxcut(np.random.default_rng(15), 4)
        d = np.array([0.1, -0.2, 0.05, 0.0])
        assert abs(p.feasibility_error(d) - 0.35) <= 1e-15

    def test_weak_metric_cross_check(self):
        rng = np.random.default_rng(16)
        p = random_weak(rng, 3, 2, beta=0.9)
        duals = (rng.standard_normal(6) * 0.1, rng.standard_normal(3) * 0.1)
        op = p.shifted_operator(duals)
        batch = probe_gibbs(op, p.beta, spectral_bounds(op),
                            draw_probes(6, 24, seed=5, iteration=2))
        feas = p.feasibility_error(p.stochastic_gradient(batch))
        # independent recomputation straight from the estimated state
        w = batch.images
        xhat = w @ w.T / batch.mass
        g = np.diag(xhat) - 1.0 / 6.0
        h = np.array([xhat[i * 2:(i + 1) * 2, i * 2:(i + 1) * 2].sum() / 2.0
                      for i in range(3)]) - 1.0 / 6.0
        ref = np.sqrt(np.abs(g).sum() ** 2 + np.abs(h).sum() ** 2)
        assert abs(feas - ref) <= 1e-12

    def test_shifted_operator_layouts(self):
        rng = np.random.default_rng(17)
        ps = random_strong(rng, 2, 2, beta=1.0)
        lam = sym_stack(rng, 2, 2)
        ref = ps.cost.to_dense().copy()
        ref[:2, :2] -= lam[0]
        ref[2:, 2:] -= lam[1]
        np.testing.assert_allclose(ps.shifted_operator(lam).to_dense(), ref,
                                   atol=1e-14)
        pw = random_weak(rng, 2, 2, beta=1.0)
        lamw, muw = rng.standard_normal(4), rng.standard_normal(2)
        refw = pw.cost.to_dense() - np.diag(lamw)
        j = np.ones((2, 2)) / 2.0
        refw[:2, :2] -= muw[0] * j
        refw[2:, 2:] -= muw[1] * j
        np.testing.assert_allclose(pw.shifted_operator((lamw, muw)).to_dense(),
                                   refw, atol=1e-14)


class TestSmoothness:
    """Gradient is beta-Lipschitz from the primal norm to the dual norm."""

    def check(self, problem, draw):
        fam = problem.norm_family()
        rng = np.random.default_rng(18)
        for _ in range(40):
            x, y = draw(rng), draw(rng)
            gx, gy = problem.dense_eval(x)[0], problem.dense_eval(y)[0]
            lhs = dual_norm(fam, fam.diff(gx, gy))
            rhs = problem.beta * primal_norm(fam, fam.diff(x, y))
            assert lhs <= rhs + 1e-8

    def test_maxcut(self):
        p = random_maxcut(np.random.default_rng(19), 7, beta=1.7)
        self.check(p, lambda r: r.standard_normal(7) * 0.5)

    def test_ot(self):
        p = random_ot(np.random.default_rng(20), 4, 5, beta=2.3)
        self.check(p, lambda r: (r.standard_normal(4) * 0.5, r.standard_normal(5) * 0.5))

    def test_strong(self):
        p = random_strong(np.random.default_rng(21), 2, 3, beta=1.2)
        self.check(p, lambda r: sym_stack(r, 2, 3, 0.4))

    def test_weak(self):
        p = random_weak(np.random.default_rng(22), 3, 2, beta=1.9)
        self.check(p, lambda r: (r.standard_normal(6) * 0.4, r.standard_normal(3) * 0.4))


class TestInitialGapBound:
    """f(0) plus the regularized primal optimum is at most the spectral width
    of the cost plus log(n)/beta."""

    def test_maxcut(self):
        rng = np.random.default_rng(23)
        p = random_maxcut(rng, 6, beta=3.0)
        res = minimize(lambda v: p.dense_eval(v)[1], np.zeros(6),
                       jac=lambda v: p.dense_eval(v)[0], method="L-BFGS-B",
                       options={"gtol": 1e-12, "maxiter": 2000})
        opt_primal = -res.fun
        ev = np.linalg.eigvalsh(p.cost.to_dense())
        width = ev[-1] - ev[0]
        lhs = p.dense_eval(np.zeros(6))[1] + opt_primal
        assert lhs <= width + np.log(6) / p.beta + 1e-6


class TestDefaultSampleCounts:
    def test_formulas(self):
        p = random_maxcut(np.random.default_rng(24), 100)
        assert p.default_sample_count() == int(np.ceil(25 * np.log(100)))
        ps = StrongPermSyncProblem(SymOperator.zeros(200), 20, 10, 1.0)
        assert ps.default_sample_count() == int(np.ceil(8 * 10 * np.log(20)))
        pw = WeakPermSyncProblem(SymOperator.zeros(200), 20, 10, 1.0)
        assert pw.default_sample_count() == int(np.ceil(25 * np.log(200)))


def _ot_with(cost=None, mu=None, beta=1.0):
    c = np.ones((3, 3)) if cost is None else cost
    m = np.full(3, 1.0 / 3.0) if mu is None else mu
    return OTProblem(c, m, np.full(3, 1.0 / 3.0), beta)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("build", [
    lambda: gen_er_maxcut(20, beta=NAN),
    lambda: MaxCutProblem(SymOperator.zeros(2), np.full(2, 0.5), INF),
    lambda: _ot_with(beta=NAN),
    lambda: _ot_with(mu=np.array([NAN, 0.5, 0.5])),
    lambda: _ot_with(cost=np.array([[1.0, NAN, 0.0]] * 3)),
    lambda: _ot_with(cost=np.array([[1.0, INF, 0.0]] * 3)),
    lambda: StrongPermSyncProblem(SymOperator.zeros(4), 2, 2, NAN),
    lambda: WeakPermSyncProblem(SymOperator.zeros(4), 2, 2, INF),
    lambda: SolverConfig(eta=INF),
    lambda: SolverConfig(eta=NAN),
    lambda: SolverConfig(beta=NAN),
    lambda: dense_gibbs(SymOperator.zeros(2), NAN),
    lambda: SolverConfig(tol_feasibility=NAN),
    lambda: SolverConfig(tol_feasibility=-1e-3),
    lambda: SolverConfig(gamma_target=NAN),
    lambda: SolverConfig(gamma_target=-5.0),
    lambda: SolverConfig(probe_tol=NAN),
    lambda: SolverConfig(probe_tol=0.0),
    lambda: SolverConfig(probe_tol=1.0),
    lambda: _certify_toy(NAN),
    lambda: _certify_toy(-0.5),
    lambda: SolverConfig(iters=2.5),
    lambda: SolverConfig(iters=NAN),
    lambda: SolverConfig(samples=2.5),
    lambda: SolverConfig(seed=1.5),
], ids=["er-maxcut-beta-nan", "maxcut-beta-inf", "ot-beta-nan", "ot-mu-nan",
        "ot-cost-nan", "ot-cost-inf", "ps-strong-beta-nan", "ps-weak-beta-inf",
        "config-eta-inf", "config-eta-nan", "config-beta-nan", "dense-gibbs-beta-nan",
        "config-tol-nan", "config-tol-negative", "config-gamma-nan",
        "config-gamma-negative", "config-probe-tol-nan", "config-probe-tol-zero",
        "config-probe-tol-one", "certify-gamma-nan", "certify-gamma-negative",
        "config-iters-fraction", "config-iters-nan", "config-samples-fraction",
        "config-seed-fraction"])
def test_non_finite_input_rejected(build):
    with pytest.raises(ValueError, match="finite"):
        build()


def _certify_toy(gamma):
    p = gen_er_maxcut(8, seed=0, beta=2.0)
    trace = solve(p, SolverConfig(iters=3, samples=8))
    return certify_gradient_decay(trace, p, gamma=gamma)


@pytest.mark.parametrize("limit", [0, -3])
def test_dense_limit_below_one_rejected(limit):
    with pytest.raises(ValueError, match="dense_limit"):
        SolverConfig(dense_limit=limit)
