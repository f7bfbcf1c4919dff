"""Experiment harness tests: replicate seeding, failure capture, averaging."""

import csv
import json
import struct

import numpy as np
import pytest

from entrodual import experiments
from entrodual.experiments import (ExperimentSpec, _write_averaged_csv,
                                   build_problem, run_experiment)
from entrodual.problems import (MaxCutProblem, OTProblem,
                                StrongPermSyncProblem, WeakPermSyncProblem)
from entrodual.solver import CSV_HEADER, SolverConfig, solve


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_HEADER
    return rows[1:]


def floats(rows, col):
    return np.array([float(r[col]) for r in rows])


def failing_solve(monkeypatch, fails):
    """Make run_experiment's solves fail at iteration 0 where fails(config)."""
    def boom(t, lam, grad):
        raise ArithmeticError("injected")

    def patched(problem, config):
        return solve(problem, config, callback=boom if fails(config) else None)

    monkeypatch.setattr(experiments, "solve", patched)


class TestBuildProblem:
    def test_kinds(self, tmp_path):
        assert isinstance(build_problem("maxcut", {"n": 6}, 0), MaxCutProblem)
        assert isinstance(build_problem("ot-synthetic", {"k": 3}, 0), OTProblem)
        ps = {"num_images": 3, "keypoints": 2, "registry": 4}
        assert isinstance(build_problem("ps-strong", ps, 0),
                          StrongPermSyncProblem)
        assert isinstance(build_problem("ps-weak", ps, 1),
                          WeakPermSyncProblem)
        f = tmp_path / "two.idx"
        f.write_bytes(struct.pack(">IIII", 0x00000803, 2, 2, 2) + bytes(8))
        assert isinstance(build_problem("ot-mnist", {"path": str(f), "k": 2}, 0),
                          OTProblem)

    def test_beta_propagates(self):
        p = build_problem("maxcut", {"n": 5, "beta": 3.5}, 0)
        assert p.beta == 3.5
        assert build_problem("maxcut", {"n": 5}, 0).beta == 10.0

    def test_params_not_mutated(self):
        params = {"n": 5, "beta": 2.0}
        build_problem("maxcut", params, 0)
        assert params == {"n": 5, "beta": 2.0}

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown problem kind"):
            build_problem("qap", {}, 0)


class TestRunExperiment:
    def spec(self, tmp_path, **kw):
        base = dict(kind="ot-synthetic", params={"k": 3, "beta": 4.0},
                    config=SolverConfig(iters=12, seed=5),
                    out_dir=str(tmp_path), name="ot3")
        base.update(kw)
        return ExperimentSpec(**base)

    def test_single_replicate_average_is_identity(self, tmp_path):
        summary = run_experiment(self.spec(tmp_path))
        assert summary["succeeded"] == 1
        rep = (tmp_path / "ot3_rep0.csv").read_text()
        avg = (tmp_path / "ot3_avg.csv").read_text()
        assert rep == avg
        assert summary["averaged_rows"] == 12

    def test_replicate_seeds_and_files(self, tmp_path):
        summary = run_experiment(self.spec(tmp_path, replicates=3))
        assert [r["seed"] for r in summary["replicates"]] == [5, 6, 7]
        for r in range(3):
            meta = json.loads((tmp_path / f"ot3_rep{r}.json").read_text())
            assert meta["seed"] == 5 + r
        # different seeds generate different instances
        f0 = floats(read_csv(tmp_path / "ot3_rep0.csv"), 1)
        f1 = floats(read_csv(tmp_path / "ot3_rep1.csv"), 1)
        assert not np.array_equal(f0, f1)

    def test_averaged_curve_is_columnwise_mean(self, tmp_path):
        run_experiment(self.spec(tmp_path, replicates=2))
        r0 = read_csv(tmp_path / "ot3_rep0.csv")
        r1 = read_csv(tmp_path / "ot3_rep1.csv")
        avg = read_csv(tmp_path / "ot3_avg.csv")
        for col in (1, 2, 4):
            want = (floats(r0, col) + floats(r1, col)) / 2
            assert np.allclose(floats(avg, col), want, rtol=1e-9)
        assert [r[0] for r in avg] == [str(i) for i in range(12)]

    def test_summary_json_round_trip(self, tmp_path):
        summary = run_experiment(self.spec(tmp_path, replicates=2))
        on_disk = json.loads((tmp_path / "ot3_summary.json").read_text())
        assert on_disk["schema"] == 1
        assert on_disk["kind"] == "ot-synthetic"
        assert on_disk["replicate_count"] == 2
        assert on_disk["succeeded"] == 2
        assert summary["summary_json"] == str(tmp_path / "ot3_summary.json")

    def test_rerun_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_experiment(self.spec(a, out_dir=str(a), replicates=2))
        run_experiment(self.spec(b, out_dir=str(b), replicates=2))
        for r in range(2):
            ra = read_csv(a / f"ot3_rep{r}.csv")
            rb = read_csv(b / f"ot3_rep{r}.csv")
            # identical except wall-clock column
            assert [row[:5] for row in ra] == [row[:5] for row in rb]

    def test_failed_replicate_recorded_and_skipped(self, tmp_path, monkeypatch):
        # replicate 1 runs with seed 5 + 1
        failing_solve(monkeypatch, lambda config: config.seed == 6)
        summary = run_experiment(self.spec(tmp_path, replicates=3))
        statuses = [r["status"] for r in summary["replicates"]]
        assert statuses == ["ok", "failed", "ok"]
        assert summary["succeeded"] == 2
        assert "RuntimeError" in summary["replicates"][1]["error"]
        assert "iteration 0" in summary["replicates"][1]["error"]
        assert not (tmp_path / "ot3_rep1.csv").exists()
        assert (tmp_path / "ot3_avg.csv").exists()

    def test_all_failed_writes_no_average(self, tmp_path, monkeypatch):
        failing_solve(monkeypatch, lambda config: True)
        summary = run_experiment(self.spec(tmp_path, replicates=2))
        assert summary["succeeded"] == 0
        assert "averaged_csv" not in summary
        assert not (tmp_path / "ot3_avg.csv").exists()
        assert (tmp_path / "ot3_summary.json").exists()

    def test_bad_replicate_count(self, tmp_path):
        with pytest.raises(ValueError):
            self.spec(tmp_path, replicates=0)

    @pytest.mark.parametrize("count", [2.5, True, np.float64(2.0), "2"],
                             ids=["float", "bool", "numpy-float", "str"])
    def test_non_integer_replicate_count_rejected_before_any_output(self, tmp_path, count):
        # the count is checked when the spec is built, before any output
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="replicates must be an integer"):
            self.spec(tmp_path, out_dir=str(out), replicates=count)
        assert not out.exists()


class TestAveragingPrefix:
    def test_uneven_lengths_truncate_to_common_prefix(self, tmp_path):
        problem = build_problem("ot-synthetic", {"k": 3, "beta": 4.0}, 0)
        short = solve(problem, SolverConfig(iters=4, seed=0))
        long = solve(problem, SolverConfig(iters=9, seed=0))
        path = tmp_path / "avg.csv"
        rows = _write_averaged_csv(path, [short, long])
        assert rows == 4
        data = read_csv(path)
        assert len(data) == 4
        assert np.allclose(floats(data, 1),
                           np.array(short.feasibility[:4]), rtol=1e-9)


class TestDimensionIndependence:
    def test_maxcut_profile_stable_across_sizes(self, tmp_path):
        finals = {}
        for n in (30, 60):
            samples = int(np.ceil(25 * np.log(n)))
            spec = ExperimentSpec(
                kind="maxcut", params={"n": n, "beta": 10.0},
                config=SolverConfig(eta=0.1, iters=100, samples=samples,
                                    seed=11),
                out_dir=str(tmp_path / str(n)), replicates=2,
                name=f"mc{n}")
            summary = run_experiment(spec)
            assert summary["succeeded"] == 2
            avg = read_csv(tmp_path / str(n) / f"mc{n}_avg.csv")
            finals[n] = floats(avg, 1)[-1]
        ratio = finals[30] / finals[60]
        assert 1 / 3 < ratio < 3
