"""Smoke tests for the profile driver in scripts/run_profile.py at toy sizes."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_profile.py"


@pytest.fixture(scope="module")
def run_profile():
    spec = importlib.util.spec_from_file_location("run_profile", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv, stems", [
    (["maxcut", "--sizes", "12", "--iters", "3", "--replicates", "2"],
     ["n12/maxcut_n12"]),
    (["ot", "--k", "3", "--iters", "5", "--replicates", "1"],
     ["ot_synthetic_k3"]),
    (["permsynch", "--num-images", "4", "--keypoints", "3", "--iters", "3",
      "--replicates", "1"],
     ["ps-strong/ps-strong_N4_K3", "ps-weak/ps-weak_N4_K3"]),
], ids=["maxcut", "ot", "permsynch"])
def test_subcommand_writes_summary_and_average(run_profile, tmp_path, capsys,
                                               argv, stems):
    run_profile.main([*argv, "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert out.count("replicates ok") == out.count(" MB  avg -> ") == len(stems)
    for stem in stems:
        summary = json.loads((tmp_path / f"{stem}_summary.json").read_text())
        assert summary["succeeded"] == summary["replicate_count"]
        # the process's running peak, in MB: a python process holding numpy
        # and scipy is past 10 MB and, at these sizes, far below 10 GB
        assert 10.0 < summary["peak_rss_mb"] < 10_000.0
        assert (tmp_path / f"{stem}_avg.csv").is_file()


def test_defaults_match_the_documented_profiles(run_profile):
    parse = run_profile.build_parser().parse_args
    mc, ot, ps = parse(["maxcut"]), parse(["ot"]), parse(["permsynch"])
    assert (mc.sizes, mc.beta, mc.iters, mc.replicates, mc.out) == (
        [50, 100, 200], 10.0, 200, 5, "results/maxcut_profile")
    assert (ot.k, ot.beta, ot.iters, ot.replicates, ot.images, ot.out) == (
        8, 10.0, 500, 5, None, "results/ot_profile")
    assert (ps.num_images, ps.keypoints, ps.iters, ps.replicates, ps.kinds,
            ps.out) == (20, 10, 200, 3, ["ps-strong", "ps-weak"],
                        "results/permsynch_profile")
