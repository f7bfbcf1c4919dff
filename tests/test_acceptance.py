"""Acceptance battery: twelve primary criteria, one report line each.

Each test prints one `ACCEPTANCE Cx [PASS/FAIL]` line with the observed
quantities at the pinned tolerances, then asserts. Two large-scale smoke
tests close the file. Run with -s to see the lines on passing runs.
"""

import math
import time

import numpy as np
import pytest
from scipy.linalg import expm

from entrodual.datasets import gen_er_maxcut, gen_permsynch, PermSynchModel, \
    sinkhorn_reference
from entrodual.experiments import ExperimentSpec, run_experiment
from entrodual.norms import dual_norm, primal_norm
from entrodual.operators import SymOperator, dense_gibbs, expm_action, \
    spectral_bounds
from entrodual.probes import draw_probes, probe_gibbs
from entrodual.problems import (MaxCutProblem, OTProblem,
                                StrongPermSyncProblem, WeakPermSyncProblem)
from entrodual.rounding import round_maxcut, round_ot, round_strong_ps, \
    triple_norm
from entrodual.solver import SolverConfig, certify_gradient_decay, solve


def report(cid, name, passed, detail):
    line = f"ACCEPTANCE {cid} [{'PASS' if passed else 'FAIL'}] {name}: {detail}"
    print(line)
    assert passed, line


def random_symmetric(rng, n, scale=1.0):
    a = rng.standard_normal((n, n))
    a = (a + a.T) / 2.0
    return a * scale / max(np.abs(np.linalg.eigvalsh(a)).max(), 1e-12)


def make_ot_instance(i, beta=10.0):
    rng = np.random.default_rng(1000 + i)
    c = rng.uniform(0.0, 1.0, (8, 8))
    mu = rng.uniform(0.5, 1.5, 8)
    nu = rng.uniform(0.5, 1.5, 8)
    return OTProblem(c, mu / mu.sum(), nu / nu.sum(), beta)


@pytest.fixture(scope="module")
def ot_runs():
    """Twenty random 8x8 transport runs to convergence, with full iterates."""
    runs = []
    for i in range(20):
        p = make_ot_instance(i)
        iterates = []

        def watch(t, lam, grad, box=iterates):
            box.append((lam[0].copy(), lam[1].copy()))

        t0 = time.perf_counter()
        trace = solve(p, SolverConfig(iters=20000, tol_feasibility=1e-11,
                                      seed=i),
                      callback=watch)
        wall = time.perf_counter() - t0
        iterates.append(trace.final_dual)
        ref = sinkhorn_reference(p, tol=1e-13)
        assert ref.converged
        runs.append((p, trace, ref, iterates, wall))
    return runs


def test_c1_ot_oracle_equivalence(ot_runs):
    gaps = [abs(tr.dual_objective[-1] - ref.objective)
            for _, tr, ref, _, _ in ot_runs]
    walls = [w for *_, w in ot_runs]
    passed = max(gaps) <= 1e-8 and max(walls) < 5.0
    report("C1", "ot-oracle-equivalence", passed,
           f"20 runs, max |f_T - f_star| {max(gaps):.2e} (tol 1e-08), "
           f"max wall {max(walls):.2f}s (< 5s)")


def test_c2_ot_objective_rate(ot_runs):
    t0 = time.perf_counter()
    worst = -np.inf
    for p, tr, ref, _, _ in ot_runs:
        scale = 2.0 * p.cost_bound + (math.log(1.0 / p.marginal_floor)
                                      + 1.0) / p.beta
        t = np.asarray(tr.iterations[1:], dtype=float)
        gaps = tr.dual_objective[1:] - ref.objective
        bound = 32.0 * scale ** 2 / (t * tr.eta)
        worst = max(worst, float((gaps - bound).max()))
    wall = time.perf_counter() - t0
    passed = worst <= 1e-9 and wall < 10.0
    report("C2", "ot-objective-rate", passed,
           f"all t >= 1 on 20 runs, worst (gap - 32 R^2/(t eta)) "
           f"{worst:.2e} (slack 1e-09), check wall {wall:.2f}s (< 10s)")


def test_c3_ot_gradient_decay_horizon():
    p = make_ot_instance(0)
    trace = solve(p, SolverConfig(iters=2001))
    T = len(trace) - 1
    scale = 2.0 * p.cost_bound + (math.log(1.0 / p.marginal_floor)
                                  + 1.0) / p.beta
    hand = 16.0 * scale / ((T - 1) * trace.eta)
    rep = certify_gradient_decay(trace, p)
    observed = float(np.min(trace.grad_dual_norm))
    passed = (T == 2000 and observed <= hand
              and math.isclose(rep.bound, hand, rel_tol=1e-12) and rep.passed)
    report("C3", "ot-gradient-decay", passed,
           f"T={T}, min grad dual norm {observed:.3e} <= "
           f"16 R/((T-1) eta) = {hand:.3e}, exact check")


def test_c4_sdp_gradient_decay_exact():
    p = gen_er_maxcut(16, p=0.4, seed=7, beta=4.0)
    t0 = time.perf_counter()
    trace = solve(p, SolverConfig(iters=400, dense_oracle=True))
    wall = time.perf_counter() - t0
    T = len(trace)
    width = spectral_bounds(p.cost, seed=0).width
    hand = (2.0 * math.sqrt(p.beta * width / T)
            + 2.0 * math.sqrt(math.log(16) / T))
    rep = certify_gradient_decay(trace, p)
    observed = float(np.min(trace.grad_dual_norm))
    passed = (T == 400 and observed <= hand and rep.passed
              and math.isclose(rep.bound, hand, rel_tol=1e-12)
              and wall < 10.0)
    report("C4", "sdp-gradient-decay", passed,
           f"n=16 beta=4 T=400 dense, min grad l1 {observed:.3e} <= "
           f"{hand:.3e} (gamma=0), wall {wall:.2f}s (< 10s)")


def test_c5_entropic_sandwich():
    worst = math.inf
    details = []
    for seed in (0, 1):
        base = gen_er_maxcut(8, p=0.5, seed=seed, beta=5.0)
        cd = base.cost.to_dense()
        ref = MaxCutProblem(base.cost, base.b, 1000.0)
        tr = solve(ref, SolverConfig(iters=40000, dense_oracle=True))
        x = dense_gibbs(ref.shifted_operator(tr.best_dual), 1000.0).density
        rounded = round_maxcut(x, base.b, cd)
        # cut value in the maximization frame; feasible, so it lower-bounds
        # the exact relaxation optimum
        p_hat = -float(np.sum(cd * rounded.payload))
        for beta in (5.0, 20.0):
            p = MaxCutProblem(base.cost, base.b, beta)
            t = solve(p, SolverConfig(iters=60000, dense_oracle=True,
                                      tol_feasibility=1e-12))
            e = t.dual_objective[-1]
            lo = p_hat - 1e-6
            hi = p_hat + math.log(8) / beta + 1e-6
            worst = min(worst, e - lo, hi - e)
            details.append(f"seed{seed}/beta{beta:g}: e={e:.6f} in "
                           f"[{lo:.6f}, {hi:.6f}]")
    passed = worst >= 0.0
    report("C5", "entropic-sandwich", passed,
           "; ".join(details) + f"; worst margin {worst:.4f}")


def test_c6_rounding_certificates():
    viol = {"ot": 0, "maxcut": 0, "ps": 0}
    for i in range(200):
        rng = np.random.default_rng(6000 + i)
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        pi = rng.uniform(0.0, 1.0, (m, n)) * rng.uniform(0.1, 3.0)
        pi[rng.random((m, n)) < 0.25] = 0.0
        mu = rng.uniform(0.2, 1.0, m)
        mu /= mu.sum()
        nu = rng.uniform(0.2, 1.0, n)
        nu /= nu.sum()
        res = round_ot(pi, mu, nu)
        hand = 2.0 * (np.abs(pi.sum(axis=1) - mu).sum()
                      + np.abs(pi.sum(axis=0) - nu).sum())
        ok = (np.abs(res.payload.sum(axis=1) - mu).sum() <= 1e-12
              and np.abs(res.payload.sum(axis=0) - nu).sum() <= 1e-12
              and res.payload.min() >= 0.0
              and res.measured_shift <= res.perturbation_certificate + 1e-12
              and math.isclose(res.perturbation_certificate, hand,
                               rel_tol=1e-12, abs_tol=1e-15))
        viol["ot"] += 0 if ok else 1

    for i in range(200):
        rng = np.random.default_rng(7000 + i)
        n = int(rng.integers(2, 11))
        b = rng.uniform(0.5, 1.5, n)
        b /= b.sum()
        v = rng.standard_normal((n, int(rng.integers(1, n + 1))))
        x = v @ v.T
        mode = i % 3
        if mode >= 1:
            d = np.sqrt(np.diag(x))
            corr = x / np.outer(d, d)
            x = corr * np.outer(np.sqrt(b), np.sqrt(b))
        if mode == 2:
            w = rng.standard_normal((n, 2))
            x = 0.95 * x + 0.05 * (w @ w.T) / n
        a = random_symmetric(rng, n, scale=rng.uniform(0.5, 4.0))
        res = round_maxcut(x, b, a)
        delta = np.abs(np.diag(x) - b).sum()
        kappa = b.max() / b.min()
        hand = 3.0 * kappa * delta * np.abs(a).sum(axis=1).max()
        ok = (np.array_equal(np.diag(res.payload), b)
              and np.linalg.eigvalsh(res.payload).min() >= -1e-10
              and res.measured_shift <= res.perturbation_certificate + 1e-12
              and math.isclose(res.perturbation_certificate, hand,
                               rel_tol=1e-12, abs_tol=1e-15))
        viol["maxcut"] += 0 if ok else 1

    for i in range(200):
        rng = np.random.default_rng(8000 + i)
        nb, k = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        n = nb * k
        mode = i % 3
        if mode == 0:
            z = rng.standard_normal((n + k, n))
            parts = [np.linalg.qr(z[:, j * k:(j + 1) * k])[0]
                     for j in range(nb)]
            z = np.hstack(parts)
            x = z.T @ z
        else:
            v = rng.standard_normal((n, int(rng.integers(1, n + 1))))
            x = v @ v.T
            if mode == 1:
                x = x / max(np.trace(x), 1e-12) * n
        a = random_symmetric(rng, n, scale=rng.uniform(0.5, 4.0))
        res = round_strong_ps(x, nb, k, a=a)
        delta = sum(np.abs(np.linalg.eigvalsh(
            x[j * k:(j + 1) * k, j * k:(j + 1) * k] - np.eye(k))).sum()
            for j in range(nb))
        hand = (2.0 * k + 1.0) * delta * triple_norm(a, nb, k)
        blocks_ok = all(np.array_equal(
            res.payload[j * k:(j + 1) * k, j * k:(j + 1) * k], np.eye(k))
            for j in range(nb))
        ok = (blocks_ok
              and res.measured_shift <= res.perturbation_certificate + 1e-12
              and math.isclose(res.perturbation_certificate, hand,
                               rel_tol=1e-12, abs_tol=1e-15))
        viol["ps"] += 0 if ok else 1

    passed = sum(viol.values()) == 0
    report("C6", "rounding-certificates", passed,
           f"200 instances per kind, violations: transport {viol['ot']}, "
           f"cut {viol['maxcut']}, synchronization {viol['ps']}")


def test_c7_estimator_concentration():
    p = gen_er_maxcut(100, seed=1, beta=10.0)
    lam = p.initial_dual()
    exact = p.dense_eval(lam)[0]
    interval = spectral_bounds(p.cost, seed=0)
    op = p.shifted_operator(lam)
    t0 = time.perf_counter()
    medians = {}
    for s in (64, 256, 1024):
        errs = []
        for rep in range(50):
            z = draw_probes(100, s, rep, 0)
            batch = probe_gibbs(op, 10.0, interval, z, 1e-8)
            errs.append(np.abs(p.stochastic_gradient(batch) - exact).sum())
        medians[s] = float(np.median(errs))
    wall = time.perf_counter() - t0
    r1 = medians[64] / medians[256]
    r2 = medians[256] / medians[1024]
    passed = (2 / 1.5 <= r1 <= 2 * 1.5 and 2 / 1.5 <= r2 <= 2 * 1.5
              and wall < 60.0)
    report("C7", "estimator-concentration", passed,
           f"median l1 error {medians[64]:.4f} -> {medians[256]:.4f} -> "
           f"{medians[1024]:.4f}; ratios {r1:.2f}, {r2:.2f} in "
           f"[1.33, 3.00]; wall {wall:.1f}s (< 60s)")


def test_c8_step_identities():
    def payload_dot(g, d):
        if isinstance(g, tuple):
            return float(sum(np.sum(a * b) for a, b in zip(g, d)))
        return float(np.sum(g * d))

    def check(family, point, grad, eta, new):
        d = family.diff(new, point)
        gn = dual_norm(family, grad)
        e1 = abs(primal_norm(family, d) - eta * gn)
        e2 = abs(payload_dot(grad, d)
                 + primal_norm(family, d) ** 2 / (2.0 * eta)
                 + 0.5 * eta * gn ** 2)
        return max(e1, e2)

    mc = gen_er_maxcut(9, p=0.5, seed=0, beta=3.0)
    ot = OTProblem(np.zeros((5, 7)), np.full(5, 1 / 5), np.full(7, 1 / 7), 3.0)
    ps = gen_permsynch(PermSynchModel(3, 3, 5, 0.2, seed=0), 2.0, "strong")
    wk = gen_permsynch(PermSynchModel(4, 3, 5, 0.2, seed=0), 2.0, "weak")
    worst = {"linf": 0.0, "pair-ot": 0.0, "block": 0.0, "pair-weak": 0.0}
    rng = np.random.default_rng(42)
    for _ in range(1000):
        eta = float(rng.uniform(0.05, 1.5))

        lam = rng.standard_normal(9)
        g = rng.standard_normal(9)
        worst["linf"] = max(worst["linf"],
                            check(mc.norm_family(), lam, g,
                                  eta, mc.norm_family().step(lam, g, eta)))

        lam = (rng.standard_normal(5), rng.standard_normal(7))
        g = (rng.standard_normal(5), rng.standard_normal(7))
        worst["pair-ot"] = max(worst["pair-ot"],
                               check(ot.norm_family(), lam, g,
                                     eta, ot.norm_family().step(lam, g, eta)))

        lam = rng.standard_normal((3, 3, 3))
        lam = (lam + lam.transpose(0, 2, 1)) / 2
        g = rng.standard_normal((3, 3, 3))
        g = (g + g.transpose(0, 2, 1)) / 2
        worst["block"] = max(worst["block"],
                             check(ps.norm_family(), lam, g,
                                   eta, ps.norm_family().step(lam, g, eta)))

        lam = (rng.standard_normal(12), rng.standard_normal(4))
        g = (rng.standard_normal(12), rng.standard_normal(4))
        worst["pair-weak"] = max(worst["pair-weak"],
                                 check(wk.norm_family(), lam, g,
                                       eta, wk.norm_family().step(lam, g, eta)))
    passed = max(worst.values()) <= 1e-10
    report("C8", "step-identities", passed,
           "1000 draws per rule, worst |deviation|: "
           + ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
           + " (tol 1e-10)")


def test_c9_gradient_smoothness():
    problems = {
        "maxcut": gen_er_maxcut(8, p=0.5, seed=3, beta=3.0),
        "ot": make_ot_instance(3, beta=5.0),
        "ps-strong": gen_permsynch(PermSynchModel(3, 2, 4, 0.3, seed=1),
                                   2.0, "strong"),
        "ps-weak": gen_permsynch(PermSynchModel(3, 2, 4, 0.3, seed=1),
                                 2.0, "weak"),
    }

    def draw_dual(problem, rng):
        proto = problem.initial_dual()
        if isinstance(proto, tuple):
            return tuple(rng.uniform(-1.5, 1.5, np.shape(x)) for x in proto)
        lam = rng.uniform(-1.5, 1.5, np.shape(proto))
        if lam.ndim == 3:
            lam = (lam + lam.transpose(0, 2, 1)) / 2
        return lam

    worst = {}
    for name, p in problems.items():
        fam = p.norm_family()
        rng = np.random.default_rng(hash(name) % 2 ** 32)
        w = -np.inf
        for _ in range(200):
            a, b = draw_dual(p, rng), draw_dual(p, rng)
            ga, gb = p.dense_eval(a)[0], p.dense_eval(b)[0]
            w = max(w, dual_norm(fam, fam.diff(ga, gb))
                    - p.beta * primal_norm(fam, fam.diff(a, b)))
        worst[name] = w
    passed = max(worst.values()) <= 1e-8
    report("C9", "gradient-smoothness", passed,
           "200 pairs per problem, worst (||grad diff||_* - beta ||dual "
           "diff||): " + ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
           + " (slack 1e-08)")


def test_c10_dimension_independence(tmp_path):
    t0 = time.perf_counter()
    finals = {}
    for n in (50, 100, 200):
        samples = math.ceil(25 * math.log(n))
        spec = ExperimentSpec(
            kind="maxcut", params={"n": n, "beta": 10.0},
            config=SolverConfig(eta=0.1, iters=200, samples=samples,
                                seed=0),
            out_dir=str(tmp_path / f"n{n}"), replicates=5,
            name=f"mc{n}")
        summary = run_experiment(spec)
        assert summary["succeeded"] == 5
        with open(summary["averaged_csv"]) as fh:
            last = fh.read().strip().splitlines()[-1].split(",")
        finals[n] = float(last[1])
    wall = time.perf_counter() - t0
    ratio = max(finals.values()) / min(finals.values())
    passed = ratio <= 2.0 and wall < 300.0
    report("C10", "dimension-independence", passed,
           "averaged feasibility at t=200: "
           + ", ".join(f"n={n} {v:.4f}" for n, v in finals.items())
           + f"; spread x{ratio:.2f} (<= 2), wall {wall:.0f}s (< 300s)")


def test_c11_expm_action_accuracy():
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(100):
        a = random_symmetric(rng, 32, scale=rng.uniform(1.0, 50.0))
        op = SymOperator.from_dense(a)
        interval = spectral_bounds(op, seed=k)
        z = rng.standard_normal(32)
        y = expm_action(op, interval, z, tol=1e-10)
        ref = expm(a) @ z
        worst = max(worst, np.linalg.norm(y - ref) / np.linalg.norm(ref))
    wall = time.perf_counter() - t0
    passed = worst <= 1e-8 and wall < 10.0
    report("C11", "expm-action-accuracy", passed,
           f"100 random 32x32 with spectral scale up to 50, worst relative "
           f"error {worst:.2e} (tol 1e-08), wall {wall:.1f}s (< 10s)")


def test_c12_ot_iterate_boundedness(ot_runs):
    worst_ratio = 0.0
    violations = 0
    for p, _, _, iterates, _ in ot_runs:
        bound = 2.0 * p.cost_bound + (math.log(1.0 / p.marginal_floor)
                                      + 2.0) / p.beta
        for phi, psi in iterates:
            m = max(np.abs(phi).max(), np.abs(psi).max())
            worst_ratio = max(worst_ratio, m / bound)
            violations += m > bound
    passed = violations == 0
    report("C12", "ot-iterate-boundedness", passed,
           f"all iterates of 20 runs, max ||potential||_inf at "
           f"{worst_ratio:.3f} of the 2M + (log(1/s)+2)/beta bound, "
           f"{violations} violations")


def test_smoke_large_maxcut():
    p = gen_er_maxcut(1000, seed=0, beta=10.0)
    samples = math.ceil(25 * math.log(1000))
    trace = solve(p, SolverConfig(iters=60, samples=samples, seed=0))
    stochastic_ok = len(trace) == 60 and np.all(np.isfinite(trace.feasibility))
    dense = solve(p, SolverConfig(iters=50, dense_oracle=True))
    decreasing = bool(np.all(np.diff(dense.feasibility[:50]) < 0.0))
    passed = stochastic_ok and decreasing
    report("S1", "smoke-maxcut-n1000", passed,
           f"stochastic S={samples} completed 60 iterations, dense "
           f"feasibility strictly decreasing over first 50 "
           f"({dense.feasibility[0]:.3f} -> {dense.feasibility[49]:.3f})")


def test_smoke_large_permsynch():
    n_img, k = 100, 10
    n = n_img * k
    beta = 10.0 * math.log(n) / n
    model = PermSynchModel(n_img, k, max(k, n_img // 2), 0.15, seed=0)
    p = gen_permsynch(model, beta, "strong")
    samples = math.ceil(8 * k * math.log(n))
    trace = solve(p, SolverConfig(iters=30, samples=samples, seed=0))
    stochastic_ok = len(trace) == 30 and np.all(np.isfinite(trace.feasibility))
    dense = solve(p, SolverConfig(iters=50, dense_oracle=True))
    decreasing = bool(np.all(np.diff(dense.feasibility[:50]) < 0.0))
    passed = stochastic_ok and decreasing
    report("S2", "smoke-permsynch-N100", passed,
           f"stochastic S={samples} completed 30 iterations, dense "
           f"feasibility strictly decreasing over first 50 "
           f"({dense.feasibility[0]:.3f} -> {dense.feasibility[49]:.3f})")
