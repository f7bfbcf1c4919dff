"""CLI tests: directory round trips, subcommand chains, exit codes."""

import csv
import json
from dataclasses import fields

import numpy as np
import pytest
import scipy.io

from entrodual import operators
from entrodual.cli import _write_vector, load_problem, main, write_problem
from entrodual.datasets import (gen_er_maxcut, gen_permsynch, gen_synthetic_ot,
                                PermSynchModel)
from entrodual.problems import (MaxCutProblem, OTProblem,
                                StrongPermSyncProblem, WeakPermSyncProblem)
from entrodual.solver import SolverConfig, SolverTrace, certify_gradient_decay


def run(argv):
    return main([str(a) for a in argv])


class TestProblemDirs:
    def test_maxcut_round_trip(self, tmp_path):
        d = tmp_path / "mc"
        assert run(["gen", "maxcut", "--n", 10, "--p", 0.4, "--beta", 3,
                    "--seed", 2, "--out", d]) == 0
        meta = json.loads((d / "meta.json").read_text())
        assert meta["schema"] == 1 and meta["kind"] == "maxcut"
        loaded = load_problem(d)
        direct = gen_er_maxcut(10, 0.4, seed=2, beta=3.0)
        assert isinstance(loaded, MaxCutProblem)
        assert np.allclose(loaded.cost.to_dense(), direct.cost.to_dense(),
                           atol=1e-14)
        assert np.allclose(loaded.b, direct.b)
        assert loaded.beta == 3.0

    def test_numpy_beta_written_as_the_number_it_holds(self, tmp_path):
        # json cannot write a float32 itself; meta.json must still hold beta
        # as a number, or the directory has a cost and vectors but no meta
        write_problem(gen_er_maxcut(30, beta=np.float32(10)), tmp_path)
        assert load_problem(tmp_path).beta == 10.0

    def test_ot_round_trip(self, tmp_path):
        d = tmp_path / "ot"
        assert run(["gen", "ot-synthetic", "--k", 4, "--beta", 6,
                    "--seed", 1, "--out", d]) == 0
        loaded = load_problem(d)
        assert isinstance(loaded, OTProblem)
        assert loaded.cost.shape == (16, 16)
        assert loaded.cost.max() == pytest.approx(10.0, abs=1e-12)
        assert loaded.mu.sum() == pytest.approx(1.0, abs=1e-12)

    def test_ps_round_trip(self, tmp_path):
        d = tmp_path / "ps"
        assert run(["gen", "ps-weak", "--num-images", 4, "--keypoints", 3,
                    "--registry", 6, "--corruption", 0.2, "--beta", 2,
                    "--seed", 5, "--out", d]) == 0
        loaded = load_problem(d)
        direct = gen_permsynch(PermSynchModel(4, 3, 6, 0.2, seed=5), 2.0,
                               "weak")
        assert isinstance(loaded, WeakPermSyncProblem)
        assert loaded.num_images == 4 and loaded.block_size == 3
        assert np.allclose(loaded.cost.to_dense(), direct.cost.to_dense(),
                           atol=1e-14)

    def test_write_problem_helper(self, tmp_path):
        p = gen_permsynch(PermSynchModel(3, 2, 4, 0.0, seed=0), 1.5, "strong")
        out = write_problem(p, tmp_path / "dir")
        again = load_problem(out)
        assert isinstance(again, StrongPermSyncProblem)
        assert again.beta == 1.5

    def test_vector_bytes_are_savetxt_bytes(self, tmp_path):
        x = np.array([1e-300, 1.0 - 2.0 ** -52, 5e-324, -0.0, 0.0, 1.0,
                      -2.5, 1.7976931348623157e308, 1.0 / 3.0, 123456789.0])
        _write_vector(tmp_path / "x.txt", x)
        np.savetxt(tmp_path / "ref.txt", x)
        assert (tmp_path / "x.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()
        assert np.array_equal(np.loadtxt(tmp_path / "x.txt"), x)

    @pytest.mark.parametrize("make", [
        lambda: gen_er_maxcut(30, seed=1, beta=3.0),
        lambda: gen_synthetic_ot(4, seed=2, beta=6.0),
        lambda: gen_permsynch(PermSynchModel(4, 3, 6, 0.3, seed=1), 2.0, "strong"),
        lambda: gen_permsynch(PermSynchModel(4, 3, 6, 0.3, seed=1), 2.0, "weak"),
    ], ids=["maxcut", "ot", "ps-strong", "ps-weak"])
    def test_every_kind_round_trips_exactly(self, tmp_path, make):
        p = make()
        out = write_problem(p, tmp_path / "dir")
        again = load_problem(out)
        assert type(again) is type(p)
        assert again.descriptor() == p.descriptor()
        assert json.loads((out / "meta.json").read_text())["digest"] == again.digest
        if isinstance(p, OTProblem):
            assert np.array_equal(again.cost, p.cost)
            for name in ("mu", "nu"):
                assert np.array_equal(getattr(again, name), getattr(p, name))
                np.savetxt(tmp_path / "ref.txt", getattr(p, name))
                assert ((out / f"{name}.txt").read_bytes()
                        == (tmp_path / "ref.txt").read_bytes())
        else:
            assert np.array_equal(again.cost.to_dense(), p.cost.to_dense())
        if isinstance(p, MaxCutProblem):
            assert np.array_equal(again.b, p.b)
            np.savetxt(tmp_path / "ref.txt", p.b)
            assert (out / "b.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()

    def test_two_vertex_maxcut_with_default_probability(self, tmp_path):
        d = tmp_path / "mc"
        assert run(["gen", "maxcut", "--n", 2, "--out", d]) == 0
        assert np.array_equal(load_problem(d).cost.to_dense(),
                              np.array([[-0.25, 0.25], [0.25, -0.25]]))

    def test_beta_override_on_load(self, tmp_path):
        d = tmp_path / "mc"
        run(["gen", "maxcut", "--n", 6, "--beta", 3, "--out", d])
        assert load_problem(d, beta=9.0).beta == 9.0

    def test_unknown_kind_rejected(self, tmp_path):
        d = tmp_path / "mc"
        run(["gen", "maxcut", "--n", 6, "--out", d])
        meta = json.loads((d / "meta.json").read_text())
        meta["kind"] = "qap"
        (d / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="unknown problem kind"):
            load_problem(d)


class TestSolveCommand:
    def test_dense_run_writes_traces(self, tmp_path, capsys):
        d = tmp_path / "mc"
        run(["gen", "maxcut", "--n", 8, "--beta", 4, "--out", d])
        out = tmp_path / "run"
        code = run(["solve", "maxcut", "--problem", d, "--iters", 30,
                    "--dense-oracle", "--out", out])
        assert code == 0
        assert "30 iterations" in capsys.readouterr().out
        with open(out / "trace.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 31
        meta = json.loads((out / "trace.json").read_text())
        assert meta["schema"] == 1
        assert meta["config"]["dense_oracle"] is True
        assert meta["problem"]["kind"] == "maxcut"

    def test_kind_mismatch_fails(self, tmp_path, capsys):
        d = tmp_path / "mc"
        run(["gen", "maxcut", "--n", 6, "--out", d])
        code = run(["solve", "ot", "--problem", d, "--out", tmp_path / "r"])
        assert code == 2
        assert "holds kind 'maxcut'" in capsys.readouterr().err

    def test_beta_override_propagates(self, tmp_path):
        d = tmp_path / "mc"
        run(["gen", "maxcut", "--n", 6, "--beta", 4, "--out", d])
        out = tmp_path / "run"
        run(["solve", "maxcut", "--problem", d, "--beta", 7, "--iters", 5,
             "--dense-oracle", "--out", out])
        meta = json.loads((out / "trace.json").read_text())
        assert meta["problem"]["beta"] == 7.0

    def test_tol_stops_early(self, tmp_path, capsys):
        d = tmp_path / "ot"
        run(["gen", "ot-synthetic", "--k", 3, "--beta", 2, "--out", d])
        out = tmp_path / "run"
        run(["solve", "ot", "--problem", d, "--iters", 500, "--tol", 2.0,
             "--out", out])
        assert "stopped early" in capsys.readouterr().out
        meta = json.loads((out / "trace.json").read_text())
        assert meta["stopped_early"] is True
        assert meta["iterations_run"] < 500

    def test_save_primal_ot_plan(self, tmp_path):
        d = tmp_path / "ot"
        run(["gen", "ot-synthetic", "--k", 3, "--beta", 4, "--out", d])
        out = tmp_path / "run"
        run(["solve", "ot", "--problem", d, "--iters", 600, "--save-primal",
             "--out", out])
        plan = np.asarray(scipy.io.mmread(out / "primal.mtx"))
        p = load_problem(d)
        assert plan.shape == (9, 9)
        assert plan.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.abs(plan.sum(axis=1) - p.mu).sum() < 1e-2

    def test_save_primal_sdp_density(self, tmp_path):
        d = tmp_path / "mc"
        run(["gen", "maxcut", "--n", 6, "--beta", 4, "--out", d])
        out = tmp_path / "run"
        run(["solve", "maxcut", "--problem", d, "--iters", 200,
             "--dense-oracle", "--save-primal", "--out", out])
        x = np.asarray(scipy.io.mmread(out / "primal.mtx"))
        assert np.trace(x) == pytest.approx(1.0, abs=1e-10)
        assert np.abs(np.diag(x) - 1.0 / 6).sum() < 1e-6
        assert np.linalg.eigvalsh(x).min() > -1e-12

    def test_save_primal_above_the_dense_limit_refused_before_solving(
            self, tmp_path, capsys, monkeypatch):
        # the limit is read when the command runs; nothing is solved or written
        monkeypatch.setattr(operators, "DENSE_LIMIT", 7)
        d = tmp_path / "mc"
        run(["gen", "maxcut", "--n", 8, "--beta", 4, "--out", d])
        out = tmp_path / "run"
        code = run(["solve", "maxcut", "--problem", d, "--iters", 3,
                    "--samples", 8, "--save-primal", "--out", out])
        assert code == 2
        err = capsys.readouterr().err
        assert "--save-primal" in err and "n <= 7" in err and "n = 8" in err
        assert not out.exists()
        assert run(["solve", "maxcut", "--problem", d, "--iters", 3,
                    "--samples", 8, "--out", out]) == 0

    @pytest.mark.parametrize("kind, value", [("maxcut", np.nan), ("maxcut", np.inf),
                                             ("ps-weak", np.nan), ("ps-strong", np.nan)])
    def test_non_finite_cost_exits_two_naming_the_cost(self, tmp_path, capsys,
                                                       kind, value):
        d = tmp_path / "p"
        args = (["--n", 6] if kind == "maxcut" else
                ["--num-images", 3, "--keypoints", 2, "--registry", 4])
        run(["gen", kind, *args, "--out", d])
        cost = load_problem(d).cost.to_sparse().tolil()
        cost[0, 0] = value
        scipy.io.mmwrite(d / "cost.mtx", cost.tocsr(), symmetry="symmetric")
        code = run(["solve", kind, "--problem", d, "--iters", 2, "--out", tmp_path / "r"])
        assert code == 2
        err = capsys.readouterr().err
        # the message names the file at fault, not the sound meta.json
        assert f"{d / 'cost.mtx'}: matrix must be finite; 1 of its entries are not" in err
        assert "meta.json" not in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("kind", ["maxcut", "ps-weak", "ps-strong"])
    def test_asymmetric_cost_exits_two_naming_the_file(self, tmp_path, capsys, kind):
        d = tmp_path / "p"
        args = (["--n", 6] if kind == "maxcut" else
                ["--num-images", 3, "--keypoints", 2, "--registry", 4])
        run(["gen", kind, *args, "--out", d])
        cost = load_problem(d).cost.to_dense()
        cost[0, 1] += 1.0
        scipy.io.mmwrite(d / "cost.mtx", cost)  # general format keeps both triangles
        code = run(["solve", kind, "--problem", d, "--iters", 2, "--out", tmp_path / "r"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{d / 'cost.mtx'}: input matrix is not symmetric" in err
        assert "meta.json" not in err
        assert not (tmp_path / "r").exists()

    def test_stochastic_run_records_samples(self, tmp_path):
        d = tmp_path / "mc"
        run(["gen", "maxcut", "--n", 10, "--beta", 2, "--out", d])
        out = tmp_path / "run"
        code = run(["solve", "maxcut", "--problem", d, "--iters", 10,
                    "--samples", 16, "--seed", 3, "--out", out])
        assert code == 0
        meta = json.loads((out / "trace.json").read_text())
        assert meta["config"]["samples"] == 16
        assert meta["config"]["seed"] == 3

    def test_every_config_field_has_a_flag(self, tmp_path):
        d = tmp_path / "mc"
        run(["gen", "maxcut", "--n", 8, "--beta", 4, "--out", d])
        out = tmp_path / "run"
        want = {"eta": 0.125, "iters": 7, "samples": 16, "gamma_target": 0.5,
                "seed": 3, "dense_oracle": True, "tol_feasibility": 1e-9}
        assert set(want) == {f.name for f in fields(SolverConfig)}
        assert all(want[f.name] != f.default for f in fields(SolverConfig))
        code = run(["solve", "maxcut", "--problem", d, "--beta", 5,
                    "--eta", 0.125, "--iters", 7, "--samples", 16,
                    "--gamma-target", 0.5, "--seed", 3, "--dense-oracle",
                    "--tol", 1e-9, "--save-primal", "--out", out])
        assert code == 0
        meta = json.loads((out / "trace.json").read_text())
        assert meta["config"] == want
        assert meta["problem"]["beta"] == 5.0
        assert (out / "primal.mtx").exists()


class TestRoundCommand:
    def test_round_ot_feasible_plan(self, tmp_path):
        d = tmp_path / "ot"
        run(["gen", "ot-synthetic", "--k", 3, "--beta", 4, "--out", d])
        p = load_problem(d)
        est = tmp_path / "est.npy"
        np.save(est, np.outer(p.mu, p.nu))
        out = tmp_path / "round"
        assert run(["round", "ot", "--problem", d, "--estimate", est,
                    "--out", out]) == 0
        report = json.loads((out / "round.json").read_text())
        assert report["certificate"] < 1e-12
        assert report["objective_bound"] == report["certificate"]
        rounded = np.asarray(scipy.io.mmread(out / "rounded.mtx"))
        assert np.allclose(rounded, np.outer(p.mu, p.nu), atol=1e-12)

    def test_round_maxcut_mtx_estimate(self, tmp_path):
        d = tmp_path / "mc"
        run(["gen", "maxcut", "--n", 5, "--beta", 4, "--out", d])
        p = load_problem(d)
        est = tmp_path / "est.mtx"
        scipy.io.mmwrite(est, np.diag(p.b))
        out = tmp_path / "round"
        assert run(["round", "maxcut", "--problem", d, "--estimate", est,
                    "--out", out]) == 0
        report = json.loads((out / "round.json").read_text())
        assert report["certificate"] == 0.0
        rounded = np.asarray(scipy.io.mmread(out / "rounded.mtx"))
        assert np.array_equal(np.diag(rounded), p.b)

    def test_round_ps_strong_unit_trace_frame(self, tmp_path):
        d = tmp_path / "ps"
        run(["gen", "ps-strong", "--num-images", 3, "--keypoints", 2,
             "--registry", 4, "--beta", 2, "--out", d])
        est = tmp_path / "est.npy"
        np.save(est, np.eye(6) / 6)
        out = tmp_path / "round"
        assert run(["round", "ps-strong", "--problem", d, "--estimate", est,
                    "--out", out]) == 0
        report = json.loads((out / "round.json").read_text())
        assert report["certificate"] < 1e-10
        rounded = np.asarray(scipy.io.mmread(out / "rounded.mtx"))
        assert np.allclose(rounded, np.eye(6) / 6, atol=1e-12)
        assert np.trace(rounded) == pytest.approx(1.0, abs=1e-12)

    def test_non_finite_estimate_exits_two_without_a_report(self, tmp_path, capsys):
        # a NaN estimate once exited 0 and wrote "measured_shift": NaN, which
        # is not JSON
        d = tmp_path / "mc"
        run(["gen", "maxcut", "--n", 5, "--out", d])
        est = tmp_path / "nan.npy"
        x = np.eye(5) / 5
        x[0, 1] = np.nan
        np.save(est, x)
        out = tmp_path / "round"
        code = run(["round", "maxcut", "--problem", d, "--estimate", est, "--out", out])
        assert code == 2
        assert "matrix must be finite" in capsys.readouterr().err
        assert not (out / "round.json").exists()

    def test_round_kind_mismatch(self, tmp_path, capsys):
        d = tmp_path / "mc"
        run(["gen", "maxcut", "--n", 5, "--out", d])
        est = tmp_path / "est.npy"
        np.save(est, np.eye(5) / 5)
        code = run(["round", "ot", "--problem", d, "--estimate", est,
                    "--out", tmp_path / "r"])
        assert code == 2
        assert "holds kind 'maxcut', not 'ot'" in capsys.readouterr().err


class TestCertifyCommand:
    def make_run(self, tmp_path, extra=()):
        d = tmp_path / "mc"
        run(["gen", "maxcut", "--n", 8, "--beta", 4, "--out", d])
        out = tmp_path / "run"
        run(["solve", "maxcut", "--problem", d, "--iters", 40,
             "--dense-oracle", "--out", out, *extra])
        return d, out

    def test_pass_exit_zero(self, tmp_path, capsys):
        d, out = self.make_run(tmp_path)
        code = run(["certify", "--problem", d, "--trace", out / "trace.csv"])
        assert code == 0
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert last.startswith("[PASS] sdp-gradient-decay")

    def test_violated_bound_exit_one(self, tmp_path, capsys):
        d, out = self.make_run(tmp_path)
        path = out / "trace.csv"
        with open(path) as fh:
            rows = list(csv.reader(fh))
        for row in rows[1:]:
            row[2] = "9.9e+9"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        code = run(["certify", "--problem", d, "--trace", path])
        assert code == 1
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert last.startswith("[FAIL]")

    def test_stochastic_requires_gamma(self, tmp_path, capsys):
        d = tmp_path / "mc"
        run(["gen", "maxcut", "--n", 8, "--beta", 4, "--out", d])
        out = tmp_path / "run"
        run(["solve", "maxcut", "--problem", d, "--iters", 10, "--samples",
             "32", "--out", out])
        code = run(["certify", "--problem", d, "--trace", out / "trace.csv"])
        assert code == 2
        assert "gamma_target" in capsys.readouterr().err
        code = run(["certify", "--problem", d, "--trace", out / "trace.csv",
                    "--gamma", 0.5])
        assert code in (0, 1)

    def test_declared_gamma_target_flows_through(self, tmp_path, capsys):
        d = tmp_path / "mc"
        run(["gen", "maxcut", "--n", 8, "--beta", 4, "--out", d])
        out = tmp_path / "run"
        run(["solve", "maxcut", "--problem", d, "--iters", 10, "--samples",
             "64", "--gamma-target", 0.7, "--out", out])
        code = run(["certify", "--problem", d, "--trace", out / "trace.csv"])
        assert code in (0, 1)
        assert "sdp-gradient-decay" in capsys.readouterr().out

    def test_trace_json_with_retired_config_keys_certifies_the_same(
            self, tmp_path, capsys):
        # older writers stored four more config fields, beta among them
        d, out = self.make_run(tmp_path, extra=("--beta", 4))
        trace_csv, trace_json = out / "trace.csv", out / "trace.json"

        def certify():
            report = certify_gradient_decay(SolverTrace.read(trace_csv, trace_json),
                                            load_problem(d))
            capsys.readouterr()
            assert run(["certify", "--problem", d, "--trace", trace_csv]) == 0
            return report, capsys.readouterr().out

        before = certify()
        meta = json.loads(trace_json.read_text())
        meta["config"].update(beta=4.0, record_objective=False, probe_tol=1e-8,
                              dense_limit=2048)
        meta["trajectory_diameter_hat"] = 1.5  # a retired top-level field
        del meta["problem"]["digest"]  # written before descriptors had one
        trace_json.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
        assert certify() == before

    @pytest.mark.parametrize("kind", ["ot", "maxcut"])
    def test_beta_override_certified_at_the_run_beta(self, tmp_path, capsys, kind):
        # a solve --beta run was once certified at the directory's beta: the OT
        # run passed against the beta-10 bound, the maxcut run exited 2 over
        # eta = 1/beta
        d, out = tmp_path / kind, tmp_path / "run"
        gen, flags = ((["ot-synthetic", "--k", 4], []) if kind == "ot"
                      else (["maxcut", "--n", 8], ["--dense-oracle"]))
        run(["gen", *gen, "--beta", 10, "--out", d])
        run(["solve", kind, "--problem", d, "--beta", 20, "--iters", 200, *flags,
             "--out", out])
        trace = SolverTrace.read(out / "trace.csv", out / "trace.json")
        want = certify_gradient_decay(trace, load_problem(d, beta=20.0))
        assert want.passed and want.details["eta"] == 1.0 / 20.0
        capsys.readouterr()
        assert run(["certify", "--problem", d, "--trace", out / "trace.csv"]) == 0
        assert capsys.readouterr().out.strip() == str(want)
        with pytest.raises(ValueError, match="beta 20.0 in the trace, 10.0 in the problem"):
            certify_gradient_decay(trace, load_problem(d))

    def test_trace_of_another_instance_exits_two(self, tmp_path, capsys):
        # a trace once certified silently against another instance's directory
        for seed in (0, 1):
            run(["gen", "ot-synthetic", "--k", 4, "--seed", seed,
                 "--out", tmp_path / f"ot{seed}"])
        out = tmp_path / "run"
        run(["solve", "ot", "--problem", tmp_path / "ot0", "--iters", 20, "--out", out])
        capsys.readouterr()
        code = run(["certify", "--problem", tmp_path / "ot1", "--trace", out / "trace.csv"])
        assert code == 2
        err = capsys.readouterr().err
        assert "another problem: marginal_floor" in err and "cost_bound" not in err

    def test_maxcut_trace_of_another_instance_names_the_digest(self, tmp_path, capsys):
        # same-size maxcut instances once described alike, so this passed
        d, out = self.make_run(tmp_path)
        other = tmp_path / "mc1"
        run(["gen", "maxcut", "--n", 8, "--beta", 4, "--seed", 1, "--out", other])
        trace = SolverTrace.read(out / "trace.csv", out / "trace.json")
        with pytest.raises(ValueError, match=r"another problem: .*digest '[0-9a-f]{8}' "
                                             r"in the trace, '[0-9a-f]{8}' in the problem"):
            certify_gradient_decay(trace, load_problem(other))
        capsys.readouterr()
        assert run(["certify", "--problem", other, "--trace", out / "trace.csv"]) == 2
        assert "digest" in capsys.readouterr().err

    def test_missing_problem_dir(self, tmp_path, capsys):
        code = run(["certify", "--problem", tmp_path / "nope",
                    "--trace", tmp_path / "t.csv"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    # trace.json edits: (config or top level, key, value)
    MISTYPED = {"string-dense-oracle": ("config", "dense_oracle", "false"),
                "bool-iters": ("config", "iters", True),
                "bool-gamma-target": ("config", "gamma_target", True),
                "string-eta": (None, "eta", "0.5"),
                "string-best-iteration": (None, "best_iteration", "x"),
                "string-stopped-early": (None, "stopped_early", "no"),
                "nan-best-grad-norm": (None, "best_grad_dual_norm", float("nan")),
                "list-problem": (None, "problem", ["maxcut"])}

    @pytest.mark.parametrize("case", ["no-best-iteration", "unknown-config-field",
                                      "short-csv-rows", "blank-iter-cell",
                                      "blank-grad-cell", "fractional-iter-cell",
                                      "nan-feas-cell", "truncated-csv",
                                      "swapped-csv-rows", "best-iteration-past-rows",
                                      "no-kind", "float-num-images",
                                      "bool-num-images", *MISTYPED])
    def test_malformed_input_exits_two_naming_the_file(self, tmp_path, capsys,
                                                        case):
        # each input once ended in a raw traceback with exit 1, which certify
        # also uses for "bound violated"
        d, out = self.make_run(tmp_path)
        trace_csv, trace_json = out / "trace.csv", out / "trace.json"
        meta = json.loads(trace_json.read_text())
        cmd = ["certify", "--problem", d, "--trace", trace_csv]
        if case == "no-best-iteration":
            del meta["best_iteration"]
            trace_json.write_text(json.dumps(meta))
            want = ("trace.json", "best_iteration")
        elif case == "unknown-config-field":
            meta["config"]["bogus"] = 1
            trace_json.write_text(json.dumps(meta))
            want = ("trace.json", "bogus")
        elif case in self.MISTYPED:
            # a string dense_oracle once made certify treat a stochastic run
            # as exact and pass it, and a string eta once raised TypeError
            section, key, value = self.MISTYPED[case]
            (meta[section] if section else meta)[key] = value
            trace_json.write_text(json.dumps(meta))
            want = ("trace.json", key)
        elif case == "short-csv-rows":
            lines = trace_csv.read_text().splitlines()
            trace_csv.write_text("\n".join(line.rsplit(",", 2)[0]
                                           for line in lines))
            want = ("trace.csv", "columns")
        elif case == "truncated-csv":
            # a 40-row trace cut to 5 rows once certified against the
            # 5-row horizon
            lines = trace_csv.read_text().splitlines()
            trace_csv.write_text("\n".join(lines[:6]) + "\n")
            want = ("trace.json", "trace.csv", "iterations_run")
        elif case == "swapped-csv-rows":
            # once read back as iterations [0, 2, 1, 3, ...]
            lines = trace_csv.read_text().splitlines()
            lines[2], lines[3] = lines[3], lines[2]
            trace_csv.write_text("\n".join(lines) + "\n")
            want = ("trace.csv", "row 2", "iter")
        elif case == "best-iteration-past-rows":
            meta["best_iteration"] = meta["iterations_run"]
            trace_json.write_text(json.dumps(meta))
            want = ("trace.json", "trace.csv", "best_iteration")
        elif case.endswith("-cell"):
            # a blank iter cell once read back as -2**63, "1.5" as 1, and a
            # blank grad_dnorm or a literal nan feas_err as NaN
            column, text = {"blank-iter-cell": ("iter", ""),
                            "blank-grad-cell": ("grad_dnorm", ""),
                            "fractional-iter-cell": ("iter", "1.5"),
                            "nan-feas-cell": ("feas_err", "nan")}[case]
            lines = trace_csv.read_text().splitlines()
            cells = lines[3].split(",")
            cells[lines[0].split(",").index(column)] = text
            lines[3] = ",".join(cells)
            trace_csv.write_text("\n".join(lines) + "\n")
            want = ("trace.csv", "row 3", column)
        elif case.endswith("-num-images"):
            # a float or boolean image count once passed the size check
            # (1.0 * 4 == True * 4 == 4) and died in solve with a TypeError
            d = tmp_path / "ps"
            run(["gen", "ps-strong", "--num-images", 1, "--keypoints", 4,
                 "--registry", 4, "--out", d])
            problem_meta = json.loads((d / "meta.json").read_text())
            problem_meta["num_images"] = {"float-num-images": 1.0,
                                          "bool-num-images": True}[case]
            (d / "meta.json").write_text(json.dumps(problem_meta))
            cmd = ["solve", "ps-strong", "--problem", d, "--iters", 2,
                   "--out", tmp_path / "ps-run"]
            want = ("meta.json", "num_images")
        else:
            problem_meta = json.loads((d / "meta.json").read_text())
            del problem_meta["kind"]
            (d / "meta.json").write_text(json.dumps(problem_meta))
            want = ("meta.json", "kind")
        code = run(cmd)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and all(w in err for w in want)
