"""Outer-loop tests: trace bookkeeping, descent invariants, rate bounds, certificates."""

import copy
import csv
import inspect
import json
import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import logsumexp

from entrodual import operators
from entrodual.norms import dual_norm, primal_norm
from entrodual.datasets import PermSynchModel, gen_er_maxcut, gen_permsynch
from entrodual.operators import SpectralInterval, SymOperator, spectral_bounds
from entrodual.probes import draw_probes, probe_gibbs
from entrodual import solver as solver_module
from entrodual.problems import (MaxCutProblem, OTProblem, StrongPermSyncProblem,
                                WeakPermSyncProblem)
from entrodual.solver import (TRACE_COLUMNS, CertificateReport, SolverConfig,
                              SolverTrace, certify_gradient_decay, solve)


def random_maxcut(n, beta, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    op = SymOperator.from_dense((a + a.T) / 2)
    return MaxCutProblem(op, np.full(n, 1.0 / n), beta)


def random_ot(m, n, beta, seed=0):
    rng = np.random.default_rng(seed)
    return OTProblem(rng.uniform(0.0, 1.0, (m, n)),
                     rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(n)), beta)


def sinkhorn_potentials(cost, mu, nu, beta, iters=50000, tol=1e-14):
    """Alternating log-domain marginal fits; fixed point optimizes the dual."""
    logmu, lognu = np.log(mu), np.log(nu)
    k = -beta * np.asarray(cost, dtype=float)
    phi = np.zeros(mu.size)
    psi = np.zeros(nu.size)
    for _ in range(iters):
        phi = (logmu - logsumexp(k + beta * psi[None, :], axis=1)) / beta
        psi = (lognu - logsumexp(k + beta * phi[:, None], axis=0)) / beta
        log_plan = k + beta * (phi[:, None] + psi[None, :])
        plan = np.exp(log_plan)
        err = np.abs(plan.sum(axis=1) - mu).sum() + np.abs(plan.sum(axis=0) - nu).sum()
        if err < tol:
            break
    return phi, psi


class TestConfig:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            SolverConfig(iters=0)
        with pytest.raises(ValueError):
            SolverConfig(eta=0.0)
        with pytest.raises(ValueError):
            SolverConfig(samples=0)
        with pytest.raises(ValueError, match="dense_oracle"):
            SolverConfig(dense_oracle="false")

    def test_eta_above_inverse_beta_warns(self):
        p = random_ot(3, 3, beta=5.0)
        with pytest.warns(UserWarning, match="eta exceeds"):
            solve(p, SolverConfig(eta=0.5, iters=1))

    def test_default_eta_is_inverse_beta(self):
        p = random_ot(3, 3, beta=5.0)
        tr = solve(p, SolverConfig(iters=1))
        assert tr.eta == pytest.approx(0.2)


class TestSolveBasics:
    def test_ot_singleton_converged_immediately(self):
        p = OTProblem(np.array([[0.3]]), np.array([1.0]), np.array([1.0]), beta=2.0)
        tr = solve(p, SolverConfig(iters=50, tol_feasibility=0.0))
        assert len(tr) == 1
        assert tr.stopped_early
        assert tr.feasibility[0] == 0.0
        assert tr.best_iteration == 0

    def test_maxcut_uniform_zero_cost_already_stationary(self):
        p = MaxCutProblem(SymOperator.zeros(2), np.array([0.5, 0.5]), beta=3.0)
        tr = solve(p, SolverConfig(iters=3, dense_oracle=True))
        assert np.all(tr.feasibility <= 1e-14)
        assert np.all(tr.grad_dual_norm <= 1e-14)
        assert np.all(tr.step_norm <= 1e-14)

    def test_rows_dense_and_best_iterate_consistent(self):
        p = random_maxcut(10, beta=4.0, seed=3)
        tr = solve(p, SolverConfig(iters=60, dense_oracle=True))
        assert np.array_equal(tr.iterations, np.arange(60))
        assert tr.best_iteration == int(np.argmin(tr.grad_dual_norm))
        assert tr.best_grad_dual_norm == tr.grad_dual_norm.min()
        g = p.dense_eval(tr.best_dual)[0]
        assert dual_norm(p.norm_family(), g) == pytest.approx(
            tr.best_grad_dual_norm, abs=1e-12)

    def test_early_stop_records_the_passing_row(self):
        p = random_ot(4, 4, beta=5.0, seed=1)
        tr = solve(p, SolverConfig(iters=500, tol_feasibility=1e-6))
        assert tr.stopped_early
        assert tr.feasibility[-1] <= 1e-6
        assert np.all(tr.feasibility[:-1] > 1e-6)

    def test_no_early_stop_by_default(self):
        p = random_ot(4, 4, beta=5.0, seed=1)
        tr = solve(p, SolverConfig(iters=40))
        assert len(tr) == 40 and not tr.stopped_early

    def test_callback_sees_pre_update_iterates(self):
        p = random_maxcut(6, beta=2.0, seed=5)
        seen = []
        solve(p, SolverConfig(iters=7, dense_oracle=True),
              callback=lambda t, lam, grad: seen.append((t, lam.copy())))
        assert [t for t, _ in seen] == list(range(7))
        assert np.array_equal(seen[0][1], np.zeros(6))

    def test_objective_recorded_on_exact_paths_only(self):
        # transport and the dense oracle keep the objective their exact
        # evaluation returns; the probe path never forms it
        mc = random_maxcut(7, beta=3.0, seed=4)
        for p, cfg in [(mc, SolverConfig(iters=6, dense_oracle=True)),
                       (random_ot(5, 4, beta=6.0, seed=2), SolverConfig(iters=6))]:
            seen = []
            tr = solve(p, cfg, callback=lambda t, lam, g: seen.append(lam))
            assert np.all(np.isfinite(tr.dual_objective))
            assert list(tr.dual_objective) == [p.dense_eval(lam)[1] for lam in seen]
        tr = solve(mc, SolverConfig(iters=6, samples=16, seed=5))
        assert np.all(np.isnan(tr.dual_objective))

    @pytest.mark.parametrize("make", [
        lambda: random_maxcut(7, beta=3.0, seed=4),
        lambda: WeakPermSyncProblem(
            SymOperator.from_dense(random_maxcut(6, 1.0, seed=6).cost.to_dense()),
            3, 2, beta=2.5),
        lambda: random_ot(5, 4, beta=6.0, seed=2),
    ], ids=["maxcut", "ps-weak", "ot"])
    def test_recording_the_objective_changes_only_its_column(self, make):
        # the objective is recorded and never read: an evaluator that hides
        # it leaves every other column bit-identical
        p = make()

        class Blind:
            def __getattr__(self, name):
                return getattr(p, name)

            def dense_eval(self, lam):
                return p.dense_eval(lam)[0], np.nan

        rec = solve(p, SolverConfig(iters=40, dense_oracle=True))
        blind = solve(Blind(), SolverConfig(iters=40, dense_oracle=True))
        assert np.all(np.isnan(blind.dual_objective))
        assert np.all(np.isfinite(rec.dual_objective))
        for col in ("iterations", "feasibility", "grad_dual_norm", "step_norm"):
            assert np.array_equal(getattr(blind, col), getattr(rec, col)), col
        assert blind.best_iteration == rec.best_iteration

    def test_non_finite_gradient_raises_with_iteration_index(self):
        p = random_maxcut(6, beta=2.0, seed=5)

        class NaNAtOne:
            def __init__(self, inner):
                self.inner = inner
                self.calls = 0

            def __getattr__(self, name):
                return getattr(self.inner, name)

            def dense_eval(self, lam):
                grad, obj = self.inner.dense_eval(lam)
                self.calls += 1
                return (np.full_like(grad, np.nan) if self.calls == 2 else grad), obj

        with pytest.raises(RuntimeError, match="iteration 1: non-finite gradient"):
            solve(NaNAtOne(p), SolverConfig(iters=10, dense_oracle=True))

    def test_backend_error_carries_iteration_index(self):
        p = random_maxcut(6, beta=2.0, seed=5)

        class Flaky:
            def __init__(self, inner):
                self.inner = inner
                self.calls = 0

            def __getattr__(self, name):
                return getattr(self.inner, name)

            def dense_eval(self, lam):
                if self.calls == 2:
                    raise FloatingPointError("synthetic")
                self.calls += 1
                return self.inner.dense_eval(lam)

        with pytest.raises(RuntimeError, match="iteration 2") as exc:
            solve(Flaky(p), SolverConfig(iters=10, dense_oracle=True))
        assert isinstance(exc.value.__cause__, FloatingPointError)


class TestStochasticPath:
    def test_same_seed_reproduces_trace(self):
        p = random_maxcut(9, beta=3.0, seed=2)
        cfg = SolverConfig(iters=12, samples=32, seed=11)
        a, b = solve(p, cfg), solve(p, cfg)
        assert np.array_equal(a.feasibility, b.feasibility)
        assert np.array_equal(a.grad_dual_norm, b.grad_dual_norm)
        assert np.array_equal(a.step_norm, b.step_norm)

    def test_fresh_probes_every_iteration(self):
        # freeze the iterate with a tiny step: metric changes come from probes alone
        p = random_maxcut(9, beta=3.0, seed=2)
        tr = solve(p, SolverConfig(iters=4, samples=16, seed=11, eta=1e-13))
        assert len(set(np.round(tr.grad_dual_norm, 12))) > 1

    def test_first_iteration_matches_manual_pipeline(self):
        # solve() draws float32 signs as a strided view; a hand run fed
        # contiguous float32 copies of the float64 draw gives the same bits,
        # on one block and on float32 blocks of 2**18 entries split over the lanes
        for p, samples in (
                (random_maxcut(9, beta=3.0, seed=2), 24),
                (gen_er_maxcut(1030, seed=3, beta=10.0), 300),
                (gen_permsynch(PermSynchModel(40, 10, 20, 0.15, seed=0), 1.0, "strong"), 700)):
            cfg = SolverConfig(iters=4, samples=samples, seed=4)
            tr = solve(p, cfg)
            want, best = manual_trace(p, cfg, np.float32)
            got = np.array([getattr(tr, field) for _, field, _, _ in TRACE_COLUMNS
                            if field != "wall_ms"])
            np.testing.assert_array_equal(got, want)
            assert tr.best_iteration == best

    def test_default_sample_count_used_when_unset(self):
        p = random_maxcut(9, beta=3.0, seed=2)
        tr = solve(p, SolverConfig(iters=2, seed=11))
        assert len(tr) == 2

    def test_resolved_sample_count_is_recorded(self, tmp_path):
        p = gen_permsynch(PermSynchModel(6, 3, 4, 0.15, seed=0), 1.0, "weak")
        tr = solve(p, SolverConfig(iters=2, seed=11))
        assert tr.config.samples == p.default_sample_count()
        tr.write_csv(tmp_path / "trace.csv")
        tr.write_metadata(tmp_path / "trace.json")
        meta = json.loads((tmp_path / "trace.json").read_text())
        assert meta["config"]["samples"] == p.default_sample_count()
        assert SolverTrace.read(tmp_path / "trace.csv",
                                tmp_path / "trace.json").config == tr.config
        # an exact run draws no probes and leaves samples unset
        assert solve(p, SolverConfig(iters=2, dense_oracle=True)).config.samples is None

    def test_every_iteration_reuses_the_block_buffers(self, monkeypatch):
        # a fresh block per iteration lets the allocator hand it back to the
        # system and fault it in again, which cost 15% of maxcut-n4000 solve time
        seen = []

        def spy(op, beta, interval, z, work):
            batch = probe_gibbs(op, beta, interval, z, work=work)
            seen.append((work, np.shares_memory(z, work["draw_probes"]),
                         batch.images is work["expm_action"]))
            return batch

        monkeypatch.setattr(solver_module, "probe_gibbs", spy)
        solve(gen_er_maxcut(1030, seed=3), SolverConfig(iters=4, samples=300, seed=1))
        assert len(seen) == 4
        assert all(work is seen[0][0] and kept_z and kept_images
                   for work, kept_z, kept_images in seen)

    @pytest.mark.parametrize("lane_count, blocks", [(1, 3), (2, 4)])
    def test_one_probe_block_in_flight(self, monkeypatch, lane_count, blocks):
        """A run holds one set of probe block buffers, reused by every
        iteration, and no earlier batch: the float32 probe words and images
        (8 n S bytes), three buffers per lane (4 n S for one lane of 70
        columns, 6 n S for two of 52), and, while the interval is found, the
        64 x n float64 Lanczos basis (2.5 n S). Keeping the last float64 batch
        and widening the images took 25 and 27 n S."""
        pool = ThreadPoolExecutor(max_workers=lane_count)
        monkeypatch.setattr(operators, "_LANES", lane_count)
        monkeypatch.setattr(operators, "_POOL", pool)
        n, samples = 3000, 208
        p = gen_er_maxcut(n, seed=0)
        assert len(operators._column_blocks(n, samples, 4)) == blocks
        try:
            solve(p, SolverConfig(iters=1, samples=samples, seed=1))  # caches the fold pattern
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                solve(p, SolverConfig(iters=4, samples=samples, seed=1))
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        finally:
            pool.shutdown()
        assert peak < 20 * n * samples

    @pytest.mark.parametrize("make, lanczos, probe_products", [
        (lambda: gen_er_maxcut(300, seed=3, beta=10.0), 140, 143 * 76),
        (lambda: gen_permsynch(PermSynchModel(12, 4, 6, 0.15, seed=0), 1.0, "strong"),
         120, 124 * 56)], ids=["maxcut", "ps-strong"])
    def test_column_products_of_a_seeded_solve(self, monkeypatch, make, lanczos,
                                               probe_products):
        """Five iterations cost one-column Lanczos products and, per
        Chebyshev term after the first, a product of all S probe columns
        (S = 143 and 124). Keeping two spare terms per series cost 143 * 86
        and 124 * 66 probe columns."""
        cols = []
        apply = SymOperator.apply

        def spy(op, v, into=None):
            cols.append(v.shape[1] if v.ndim == 2 else 1)
            return apply(op, v, into)

        monkeypatch.setattr(SymOperator, "apply", spy)
        p = make()
        solve(p, SolverConfig(iters=5, seed=1))
        vectors = cols.count(1)
        assert (vectors, sum(cols) - vectors) == (lanczos, probe_products)

    def test_block_gradient_is_decomposed_once_per_iteration(self, monkeypatch):
        """One eigh of the gradient stack serves the feasibility, the dual
        norm and the step; the primal norm of the step is one more eigvalsh.
        Each iteration took four eigvalsh and one eigh before."""
        calls = []
        for name in ("eigh", "eigvalsh"):
            def spy(a, *args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
                calls.append((_name, np.shape(a)))
                return _fn(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, spy)
        p = gen_permsynch(PermSynchModel(12, 4, 6, 0.15, seed=0), 1.0, "strong")
        solve(p, SolverConfig(iters=5, seed=1))
        assert calls == [("eigh", (12, 4, 4)), ("eigvalsh", (12, 4, 4))] * 5

    def test_block_dual_problem_runs(self):
        rng = np.random.default_rng(8)
        n_img, k = 3, 2
        a = rng.normal(size=(6, 6))
        p = StrongPermSyncProblem(SymOperator.from_dense((a + a.T) / 2),
                                  n_img, k, beta=2.0)
        tr = solve(p, SolverConfig(iters=6, samples=32, seed=1))
        assert len(tr) == 6
        assert np.all(np.isfinite(tr.grad_dual_norm))


class TestProbeInterval:
    """Each iteration's interval comes from spectral_bounds on the shifted
    cost; solve() trusts it only when it is certified and the images did not
    grow, and otherwise redoes the batch on the Gershgorin interval."""

    @staticmethod
    def gradients(p, cfg):
        grads = []
        solve(p, cfg, callback=lambda t, lam, g: grads.append(g.copy()))
        return np.array(grads)

    @staticmethod
    def narrow(certified):
        """A spectral_bounds stand-in whose lower end sits mid-spectrum."""
        def bounds(op, **kwargs):
            ev = np.linalg.eigvalsh(op.to_dense())
            return SpectralInterval(0.5 * (ev[0] + ev[-1]), ev[-1],
                                    certified=certified)
        return bounds

    @pytest.mark.parametrize("certified", [False, True])
    def test_bad_interval_falls_back_to_gershgorin(self, monkeypatch, certified):
        p = random_maxcut(12, beta=3.0, seed=5)
        cfg = SolverConfig(iters=4, samples=32, seed=2)
        used = []

        def spy(op, beta, interval, z, work):
            batch = probe_gibbs(op, beta, interval, z, work=work)
            used.append((interval.lo, interval.hi, op.inf_norm_bound(), z.dtype,
                         batch.mass / z.size))
            return batch

        monkeypatch.setattr(solver_module, "probe_gibbs", spy)
        want = self.gradients(p, cfg)
        assert all(dtype == np.float32 for *_, dtype, _ in used)
        want_mass = min(m for *_, m in used)
        used.clear()
        monkeypatch.setattr(solver_module, "spectral_bounds", self.narrow(certified))
        got = self.gradients(p, cfg)
        # an uncertified interval is never used; a certified one that is too
        # narrow is tried, its images grow, and the batch is redone in float32
        # on the Gershgorin interval. Its images shrink below float32
        # roundoff there, so it is redone once more in float64.
        tries = 3 if certified else 2
        assert len(used) == tries * cfg.iters
        for j in range(0, len(used), tries):
            (lo32, hi32, r, dtype32, _), (lo, hi, _, dtype, _) = used[j + tries - 2:j + tries]
            assert (lo32, hi32) == (lo, hi) == (-r, r)
            assert (dtype32, dtype) == (np.float32, np.float64)
        got_mass = min(m for *_, m in used)
        # both intervals enclose the spectrum. A batch of mass m n S whose
        # images are off by at most e per unit of probe length has a relative
        # mass error of at most 2 e / sqrt(m), and its gradient r / mass an l1
        # error of at most twice that. Here e is float32 roundoff on the
        # float32 batch and the 1e-11 truncation target on the float64 one.
        eps = float(np.finfo(np.float32).eps)
        bound = 4.0 * (eps / math.sqrt(want_mass) + 1e-11 / math.sqrt(got_mass))
        assert np.abs(got - want).sum(axis=1).max() <= bound

    def test_batch_that_still_grows_raises(self, monkeypatch):
        p = random_maxcut(12, beta=3.0, seed=5)
        monkeypatch.setattr(solver_module, "spectral_bounds", self.narrow(False))
        monkeypatch.setattr(SymOperator, "inf_norm_bound", lambda self: 0.1)
        with pytest.raises(RuntimeError, match="iteration 0: .*mass"):
            solve(p, SolverConfig(iters=2, samples=8, seed=0))

    def test_large_beta_reports_the_exact_feasibility(self):
        # at beta = 30 a lower end padded far below the smallest eigenvalue
        # would shrink every image into roundoff and the reported feasibility
        # would drift far below the exact one
        p = gen_er_maxcut(500, seed=0, beta=30.0)
        tr = solve(p, SolverConfig(iters=35, samples=156, seed=0))
        exact = p.feasibility_error(p.dense_eval(tr.best_dual)[0])
        # probe noise: the same estimator on exact images of fresh batches
        evals, vecs = np.linalg.eigh(p.shifted_operator(tr.best_dual).to_dense())
        factor = (vecs * np.exp(-15.0 * (evals - evals[0]))) @ vecs.T
        rng = np.random.default_rng(5)
        noise = 0.0
        for _ in range(16):
            w = factor @ rng.choice([-1.0, 1.0], size=(500, 156))
            r = np.einsum("ns,ns->n", w, w)
            noise = max(noise, abs(np.abs(r / r.sum() - p.b).sum() - exact))
        assert abs(tr.feasibility[tr.best_iteration] - exact) <= 2.0 * noise

    @pytest.mark.parametrize("beta", [200.0, 400.0, 1000.0])
    def test_probe_mass_below_the_chebyshev_floor_raises(self, beta):
        # at zero dual the smallest mass / (n S) is 1.2e-13, 2.4e-24 and
        # 5.1e-25, and the l1 feasibility error of the images against
        # dense_eval 4.9e-4, 0.25 and 1.49
        p = gen_er_maxcut(200, seed=0, beta=beta)
        cfg = SolverConfig(iters=1, samples=400)
        if beta < 400.0:
            assert len(solve(p, cfg)) == 1
            return
        with pytest.raises(RuntimeError, match="iteration 0: .*probe mass"):
            solve(p, cfg)


def manual_trace(problem, cfg, dtype=np.float64):
    """The stochastic solve run by hand from the public pieces: draw_probes,
    cast to a contiguous block of dtype, probe_gibbs on the Lanczos interval,
    stochastic_gradient in the form its geometry prepares, and update.
    Returns the trace.csv columns but wall_ms, and the best row."""
    family, lam, eta = problem.norm_family(), problem.initial_dual(), cfg.resolve(problem)
    cols = []
    for t in range(cfg.iters):
        op = problem.shifted_operator(lam)
        interval = spectral_bounds(op, seed=cfg.seed)
        z = np.ascontiguousarray(draw_probes(problem.dimension, cfg.samples, cfg.seed, t),
                                 dtype=dtype)
        batch = probe_gibbs(op, problem.beta, interval, z)
        # the solver's first rung: a certified interval and a batch that
        # neither grew nor fell below the float32 floor
        assert interval.certified
        assert solver_module._FLOAT32_FLOOR <= batch.mass / z.size <= 1.0
        grad = family.prepare(problem.stochastic_gradient(batch))
        new_lam = problem.update(lam, grad, eta)
        cols.append((t, problem.feasibility_error(grad), dual_norm(family, grad), math.nan,
                     primal_norm(family, family.diff(new_lam, lam))))
        lam = new_lam
    cols = np.array(cols).T
    return cols, int(np.argmin(cols[2]))


class TestPrecisionLadder:
    """solve() runs each probe batch in float32 and redoes it in float64 only
    when its mass falls below the float32 floor."""

    @staticmethod
    def spy(monkeypatch):
        calls = []

        def spy(op, beta, interval, z, work):
            batch = probe_gibbs(op, beta, interval, z, work=work)
            calls.append((interval, z.dtype, batch.mass / z.size))
            return batch

        monkeypatch.setattr(solver_module, "probe_gibbs", spy)
        return calls

    @pytest.mark.parametrize("beta", [1e-9, 1e-4, 3.0])
    def test_batch_above_the_float32_floor_costs_one_float32_call(self, monkeypatch, beta):
        # at small beta every image is nearly its probe and the mass nearly
        # n S: float32 roundoff must stay inside the ceiling's 1e-6 slack
        calls = self.spy(monkeypatch)
        p = random_maxcut(12, beta=beta, seed=5)
        solve(p, SolverConfig(iters=4, samples=32, seed=2))
        assert [dtype for _, dtype, _ in calls] == [np.float32] * 4
        assert all(interval.certified for interval, _, _ in calls)
        assert min(mass for *_, mass in calls) >= solver_module._FLOAT32_FLOOR

    def test_batch_below_the_float32_floor_is_redone_in_float64(self, monkeypatch):
        calls = self.spy(monkeypatch)
        # the beta = 200 case of test_probe_mass_below_the_chebyshev_floor_raises
        p = gen_er_maxcut(200, seed=0, beta=200.0)
        assert len(solve(p, SolverConfig(iters=1, samples=400))) == 1
        (interval32, dtype32, mass32), (interval64, dtype64, mass64) = calls
        assert (dtype32, dtype64) == (np.float32, np.float64)
        assert interval32 == interval64 and interval32.certified
        assert mass32 < solver_module._FLOAT32_FLOOR
        assert mass64 >= solver_module._FLOAT64_FLOOR

    def test_floors_follow_the_series_target(self):
        # the truncation error per unit of probe length, max(tol 1e-3, eps),
        # reaches sqrt(tol) of the images at a mass of (error / sqrt(tol))^2 n S
        tol = inspect.signature(probe_gibbs).parameters["tol"].default
        for floor, dtype in ((solver_module._FLOAT32_FLOOR, np.float32),
                             (solver_module._FLOAT64_FLOOR, np.float64)):
            want = (max(tol * 1e-3, float(np.finfo(dtype).eps)) / math.sqrt(tol)) ** 2
            assert math.isclose(floor, want, rel_tol=1e-15), (dtype, floor, want)

    @pytest.mark.parametrize("make", [
        lambda: gen_er_maxcut(300, seed=3, beta=10.0),
        lambda: gen_permsynch(PermSynchModel(12, 4, 6, 0.15, seed=0), 1.0, "strong")],
        ids=["maxcut", "ps-strong"])
    def test_trace_stays_within_float32_tolerance_of_float64(self, make):
        p = make()
        cfg = SolverConfig(iters=20, samples=p.default_sample_count(), seed=1)
        tr = solve(p, cfg)
        want, best = manual_trace(p, cfg)
        got = np.array([getattr(tr, field) for _, field, _, _ in TRACE_COLUMNS
                        if field != "wall_ms"])
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=0.0)
        assert tr.best_iteration == best


class TestDescentInvariants:
    def test_monotone_surrogate_decrease_maxcut(self):
        p = random_maxcut(12, beta=4.0, seed=7)
        tr = solve(p, SolverConfig(iters=120, dense_oracle=True))
        eta = tr.eta
        f, g = tr.dual_objective, tr.grad_dual_norm
        assert np.all(f[1:] <= f[:-1] - 0.5 * eta * g[:-1] ** 2 + 1e-8)

    def test_monotone_surrogate_decrease_ot(self):
        p = random_ot(7, 6, beta=8.0, seed=7)
        tr = solve(p, SolverConfig(iters=300))
        eta = tr.eta
        f, g = tr.dual_objective, tr.grad_dual_norm
        assert np.all(f[1:] <= f[:-1] - 0.5 * eta * g[:-1] ** 2 + 1e-8)

    def test_ot_objective_rate_bound(self):
        # per-iteration dual gap against the a-priori potential-diameter bound
        p = random_ot(8, 8, beta=5.0, seed=13)
        phi, psi = sinkhorn_potentials(p.cost, p.mu, p.nu, p.beta)
        assert p.feasibility_error(p.dense_eval((phi, psi))[0]) < 1e-12
        f_star = p.dense_eval((phi, psi))[1]
        tr = solve(p, SolverConfig(iters=2000))
        eta = tr.eta
        scale = 2.0 * p.cost_bound + (math.log(1.0 / p.marginal_floor) + 1.0) / p.beta
        t = np.arange(1, len(tr))
        gap = tr.dual_objective[1:] - f_star
        assert np.all(gap <= 32.0 * scale ** 2 / (t * eta) + 1e-9)

    def test_sgd_objective_plateau(self):
        # late-iteration dual gap sits below the measured-bias plateau level
        p = random_maxcut(8, beta=2.0, seed=21)
        fam = p.norm_family()
        res = minimize(lambda lam: p.dense_eval(lam)[1], np.zeros(8),
                       jac=lambda lam: p.dense_eval(lam)[0], method="L-BFGS-B",
                       options={"gtol": 1e-12, "maxiter": 2000})
        lam_star, f_star = res.x, res.fun

        errs, sqdist, fvals = [], [], []

        def watch(t, lam, grad):
            errs.append(dual_norm(fam, grad - p.dense_eval(lam)[0]))
            sqdist.append(primal_norm(fam, lam - lam_star) ** 2)
            fvals.append(p.dense_eval(lam)[1])

        half = 0.5 / p.beta
        solve(p, SolverConfig(iters=600, samples=48, seed=3, eta=half),
              callback=watch)
        gamma = max(errs)
        d_hat = max(sqdist)
        late = np.array(fvals[-150:]) - f_star
        assert np.all(late <= gamma * math.sqrt(6.0 * d_hat))


class TestCertificates:
    def test_exact_maxcut_bound_holds(self):
        p = random_maxcut(16, beta=4.0, seed=9)
        tr = solve(p, SolverConfig(iters=400, dense_oracle=True))
        rep = certify_gradient_decay(tr, p)
        assert isinstance(rep, CertificateReport)
        assert rep.kind == "sdp-gradient-decay"
        assert rep.passed and rep.margin > 0.0
        width = spectral_bounds(p.cost, seed=0).width
        by_hand = (2.0 * math.sqrt(4.0 * width / 400)
                   + 2.0 * math.sqrt(math.log(16) / 400))
        assert rep.bound == pytest.approx(by_hand, rel=1e-12)

    def test_single_iteration_report_still_emitted(self):
        p = random_maxcut(16, beta=4.0, seed=9)
        tr = solve(p, SolverConfig(iters=1, dense_oracle=True))
        rep = certify_gradient_decay(tr, p)
        assert rep.details["horizon"] == 1
        assert rep.passed

    def test_ot_uses_potential_scale_bound(self):
        p = random_ot(6, 6, beta=5.0, seed=2)
        tr = solve(p, SolverConfig(iters=402))
        rep = certify_gradient_decay(tr, p)
        assert rep.kind == "ot-gradient-decay"
        scale = 2.0 * p.cost_bound + (math.log(1.0 / p.marginal_floor) + 1.0) / p.beta
        assert rep.bound == pytest.approx(16.0 * scale / (400 * tr.eta), rel=1e-12)
        assert rep.passed

    def test_ot_short_run_gives_vacuous_bound(self):
        p = random_ot(6, 6, beta=5.0, seed=2)
        tr = solve(p, SolverConfig(iters=2))
        rep = certify_gradient_decay(tr, p)
        assert math.isinf(rep.bound) and rep.passed

    def test_stochastic_run_requires_declared_budget(self):
        p = random_maxcut(8, beta=2.0, seed=1)
        tr = solve(p, SolverConfig(iters=20, samples=16, seed=1))
        with pytest.raises(ValueError, match="gamma_target"):
            certify_gradient_decay(tr, p)
        tr = solve(p, SolverConfig(iters=20, samples=16, seed=1, gamma_target=0.6))
        rep = certify_gradient_decay(tr, p)
        assert rep.details["gamma"] == 0.6

    def test_gamma_override_argument(self):
        p = random_maxcut(8, beta=2.0, seed=1)
        tr = solve(p, SolverConfig(iters=20, samples=16, seed=1))
        rep = certify_gradient_decay(tr, p, gamma=0.4)
        assert rep.details["gamma"] == 0.4

    def test_sdp_bound_requires_matched_step(self):
        p = random_maxcut(8, beta=2.0, seed=1)
        tr = solve(p, SolverConfig(iters=5, dense_oracle=True, eta=0.25))
        with pytest.raises(ValueError, match="eta = 1/beta"):
            certify_gradient_decay(tr, p)

    def test_problem_of_another_run_raises(self):
        tr = solve(random_maxcut(8, beta=2.0, seed=1), SolverConfig(iters=5, dense_oracle=True))
        with pytest.raises(ValueError, match=r"another problem: n 8 in the trace, 10 in "
                                             r"the problem; beta 2.0 in the trace, 3.0"):
            certify_gradient_decay(tr, random_maxcut(10, beta=3.0, seed=1))

    def test_unusable_gradient_rows_raise(self):
        p = random_maxcut(8, beta=2.0, seed=1)
        tr = solve(p, SolverConfig(iters=5, dense_oracle=True))
        tr.grad_dual_norm[2] = np.nan
        with pytest.raises(ValueError, match="gradient records"):
            certify_gradient_decay(tr, p)

    def test_report_string_has_verdict(self):
        p = random_maxcut(8, beta=2.0, seed=1)
        tr = solve(p, SolverConfig(iters=40, dense_oracle=True))
        assert str(certify_gradient_decay(tr, p)).startswith("[PASS]")


def payload_equal(a, b):
    a, b = (a, b) if isinstance(a, tuple) else ((a,), (b,))
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


class TestTraceBookkeeping:
    @pytest.mark.parametrize("make", [
        lambda: random_maxcut(7, beta=3.0, seed=4),
        lambda: random_ot(5, 4, beta=6.0, seed=2),
        lambda: WeakPermSyncProblem(
            SymOperator.from_dense(random_maxcut(6, 1.0, seed=6).cost.to_dense()),
            3, 2, beta=2.5),
        lambda: StrongPermSyncProblem(
            SymOperator.from_dense(random_maxcut(6, 1.0, seed=8).cost.to_dense()),
            3, 2, beta=2.0),
    ], ids=["maxcut", "ot", "ps-weak", "ps-strong"])
    def test_duals_kept_without_copy_match_the_iterates(self, make):
        # solve() keeps best_dual by reference, which is sound only while
        # every update returns a fresh payload and leaves its inputs alone
        p = make()
        seen = []
        tr = solve(p, SolverConfig(iters=30, dense_oracle=True),
                   callback=lambda t, lam, grad: seen.append(
                       copy.deepcopy((lam, grad))))
        assert payload_equal(tr.best_dual, seen[tr.best_iteration][0])
        assert payload_equal(tr.final_dual, p.update(*seen[-1], tr.eta))
        for lam, grad in seen:
            before = copy.deepcopy((lam, grad))
            p.update(lam, grad, tr.eta)
            assert payload_equal(lam, before[0])
            assert payload_equal(grad, before[1])

    def test_step_norm_measures_actual_move(self):
        p = random_maxcut(7, beta=3.0, seed=6)
        iterates = []
        tr = solve(p, SolverConfig(iters=30, dense_oracle=True),
                   callback=lambda t, lam, g: iterates.append(lam.copy()))
        fam = p.norm_family()
        for t in range(len(iterates) - 1):
            assert tr.step_norm[t] == pytest.approx(
                primal_norm(fam, iterates[t + 1] - iterates[t]), abs=1e-14)
        # identity tying the move to the gradient's dual norm
        for t in range(len(tr)):
            assert tr.step_norm[t] == pytest.approx(
                tr.eta * tr.grad_dual_norm[t], abs=1e-10)


class TestSerialization:
    def test_record_grows_with_the_iterations_run(self):
        p = random_ot(4, 5, beta=7.0, seed=1)
        tol = solve(p, SolverConfig(iters=4)).feasibility[-1]
        tracemalloc.start()
        try:
            tr = solve(p, SolverConfig(iters=10**6, tol_feasibility=tol))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tr.stopped_early and len(tr) <= 4
        # a record preallocated for every requested iteration took 56 MB
        assert peak < 1e6

    def test_csv_round_trip(self, tmp_path):
        p = random_maxcut(6, beta=2.0, seed=5)
        tr = solve(p, SolverConfig(iters=8, dense_oracle=True))
        path = tmp_path / "trace.csv"
        tr.write_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iter", "feas_err", "grad_dnorm", "dual_obj",
                           "step_norm", "wall_ms"]
        assert len(rows) == 9
        for i, row in enumerate(rows[1:]):
            assert int(row[0]) == i
            assert float(row[1]) == pytest.approx(tr.feasibility[i], rel=1e-10)
            assert float(row[2]) == pytest.approx(tr.grad_dual_norm[i], rel=1e-10)
            assert float(row[3]) == pytest.approx(tr.dual_objective[i], rel=1e-10)
            assert float(row[4]) == pytest.approx(tr.step_norm[i], rel=1e-10)

    def test_csv_blank_objective_column_when_unrecorded(self, tmp_path):
        p = random_maxcut(6, beta=2.0, seed=5)
        tr = solve(p, SolverConfig(iters=3, samples=16, seed=5))
        path = tmp_path / "trace.csv"
        tr.write_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert all(row[3] == "" for row in rows[1:])

    def test_metadata_sidecar_contents(self, tmp_path):
        p = random_ot(4, 5, beta=7.0, seed=1)
        cfg = SolverConfig(iters=6, seed=42)
        tr = solve(p, cfg)
        path = tmp_path / "trace.json"
        tr.write_metadata(path)
        meta = json.loads(path.read_text())
        assert meta["schema"] == 1
        assert meta["seed"] == 42
        assert meta["config"]["iters"] == 6
        assert meta["problem"]["kind"] == "ot"
        assert meta["problem"]["m"] == 4 and meta["problem"]["n"] == 5
        assert meta["iterations_run"] == 6
        assert isinstance(meta["build"], str) and meta["build"]
        assert meta["best_iteration"] == int(np.argmin(tr.grad_dual_norm))

    def test_numpy_integer_config_round_trips(self, tmp_path):
        # numpy counts pass the config checks, so trace.json must hold them
        # as numbers that read() accepts
        cfg = SolverConfig(iters=np.int64(3), samples=np.int64(8), seed=np.int64(2))
        tr = solve(random_maxcut(6, beta=2.0, seed=5), cfg)
        tr.write_csv(tmp_path / "trace.csv")
        tr.write_metadata(tmp_path / "trace.json")
        assert SolverTrace.read(tmp_path / "trace.csv", tmp_path / "trace.json").config == cfg

    def test_json_writer_writes_numbers_or_no_file(self, tmp_path):
        path = tmp_path / "out.json"
        solver_module.write_json(path, {"b": np.float32(0.5), "a": np.int64(2),
                                        "c": [np.bool_(True)]})
        assert path.read_text() == '{\n  "a": 2,\n  "b": 0.5,\n  "c": [\n    true\n  ]\n}\n'
        path.unlink()
        with pytest.raises(TypeError, match="object"):
            solver_module.write_json(path, {"a": 1, "b": object()})
        assert not path.exists()

    def test_build_label_asks_git_once_per_process(self, monkeypatch):
        calls = []
        real_run = solver_module.subprocess.run

        def counting_run(*args, **kwargs):
            calls.append(args)
            return real_run(*args, **kwargs)

        monkeypatch.setattr(solver_module.subprocess, "run", counting_run)
        solver_module._git_describe.cache_clear()
        tr = solve(random_ot(3, 3, beta=2.0), SolverConfig(iters=2))
        first, second = tr.metadata(), tr.metadata()
        assert len(calls) <= 1
        assert first["build"] == second["build"]
