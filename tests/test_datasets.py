"""Generator tests: graph statistics, image recipes, IDX parsing, Sinkhorn oracle."""

import hashlib
import math
import struct

import numpy as np
import pytest

from entrodual.cli import load_problem, write_problem
from entrodual.datasets import (PermSynchModel, SinkhornResult, gen_er_maxcut,
                                gen_permsynch, gen_synthetic_ot, grid_cost,
                                load_mnist_pair, sinkhorn_reference)
from entrodual.operators import SymOperator
from entrodual.problems import (OTProblem, StrongPermSyncProblem,
                                WeakPermSyncProblem)


def assert_same_csr(a, b):
    """Equal CSR arrays, dtypes included, not just equal matrices."""
    for x, y in ((a.indptr, b.indptr), (a.indices, b.indices), (a.data, b.data)):
        assert x.dtype == y.dtype and np.array_equal(x, y)


def fingerprint(op):
    """First 16 hex digits of sha256 over the CSR arrays as <i8, <i8, <f8."""
    h = hashlib.sha256()
    for arr, dtype in ((op.base.indptr, "<i8"), (op.base.indices, "<i8"),
                       (op.base.data, "<f8")):
        h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    return h.hexdigest()[:16]


def reference_maxcut_cost(n, p, seed):
    """C = -L/4 from the upper triangle of one row-major n x n uniform draw,
    with no diagonal entry for an isolated vertex."""
    rows, cols = np.argwhere(
        np.triu(np.random.default_rng(seed).random((n, n)) < p, k=1)).T
    deg = np.bincount(np.concatenate([rows, cols]), minlength=n).astype(float)
    linked = np.flatnonzero(deg)
    return SymOperator.from_triplets(
        n, np.concatenate([rows, linked]), np.concatenate([cols, linked]),
        np.concatenate([np.full(rows.size, 0.25), -deg[linked] / 4.0]))


def reference_permsynch_cost(model):
    """The per-pair loop the vectorized generator replaces, kept as reference."""
    rng = np.random.default_rng(model.seed)
    n_img, k = model.num_images, model.keypoints
    ids = [rng.choice(model.registry, size=k, replace=False)
           for _ in range(n_img)]
    rows, cols = [], []
    for i in range(n_img):
        for j in range(i + 1, n_img):
            li, lj = ids[i], ids[j]
            if rng.random() < model.corruption:
                li = li[rng.permutation(k)]
                lj = lj[rng.permutation(k)]
            pos = {label: q for q, label in enumerate(lj)}
            for q, label in enumerate(li):
                if label in pos:
                    rows.append(i * k + q)
                    cols.append(j * k + pos[label])
    return SymOperator.from_triplets(n_img * k, np.array(rows, dtype=int),
                                     np.array(cols, dtype=int),
                                     -np.ones(len(rows)))


# The benchmark's instances, fingerprinted before set-up was vectorized. The
# cut costs were fingerprinted again once an isolated vertex stopped storing
# a -0.0 diagonal entry: 199 of them at n = 4000 (16190 entries before), 11 at
# n = 200 (788 before).
@pytest.mark.parametrize("make, digest, nnz", [
    (lambda: gen_er_maxcut(4000, seed=0), "2791f9969d69717c", 15991),
    (lambda: gen_er_maxcut(200, seed=0), "56ae92b8d9320523", 777),
    (lambda: gen_permsynch(PermSynchModel(100, 10, 50, 0.15, seed=0), 1.0,
                           "strong"), "81f8eedcf3c5bef4", 19722),
], ids=["maxcut-n4000", "maxcut-n200", "ps-strong-n100"])
def test_benchmark_instance_fingerprints(make, digest, nnz):
    cost = make().cost
    assert cost.base.nnz == nnz
    assert fingerprint(cost) == digest


class TestErMaxCut:
    def test_empty_graph(self):
        p = gen_er_maxcut(5, p=0.0, seed=1)
        assert np.abs(p.cost.to_dense()).max() == 0.0
        assert np.array_equal(p.b, np.full(5, 0.2))

    def test_complete_graph_known_laplacian(self):
        p = gen_er_maxcut(3, p=1.0, seed=1)
        lap = 3 * np.eye(3) - np.ones((3, 3))
        assert np.abs(p.cost.to_dense() - (-lap / 4.0)).max() < 1e-15

    def test_edge_count_binomial(self):
        n, prob = 50, 3.0 / 50.0
        pairs = n * (n - 1) / 2
        counts = []
        for seed in range(100):
            c = gen_er_maxcut(n, seed=seed).cost.to_dense()
            counts.append(np.count_nonzero(np.triu(c, k=1)))
        mean = pairs * prob
        sigma = math.sqrt(pairs * prob * (1 - prob))
        assert abs(np.mean(counts) - mean) < 4 * sigma / math.sqrt(100)

    def test_edges_match_one_full_uniform_draw(self):
        # the generator draws in row chunks; the edge set must equal that of
        # one row-major n x n draw from the same stream
        n, prob = 1100, 0.01
        upper = np.triu(np.random.default_rng(3).random((n, n)) < prob, k=1)
        c = gen_er_maxcut(n, prob, seed=3).cost.to_dense()
        assert np.array_equal(np.triu(c, k=1) != 0.0, upper)

    @pytest.mark.parametrize("n, prob, seed", [
        (5, 0.0, 1), (40, 1.0, 2), (200, 0.015, 0),
        # 886 rows in chunks of 295: the last chunk is one row
        (886, 0.01, 4), (886, 1.0, 4)])
    def test_csr_matches_one_full_draw_reference(self, n, prob, seed):
        assert_same_csr(gen_er_maxcut(n, prob, seed=seed).cost.base,
                        reference_maxcut_cost(n, prob, seed).base)

    def test_problem_directory_round_trip_keeps_the_csr_arrays(self, tmp_path):
        # one isolated vertex: the -0.0 diagonal entry it stored was dropped
        # by the MatrixMarket round trip (122 entries before it, 121 after)
        p = gen_er_maxcut(30, seed=1)
        write_problem(p, tmp_path)
        a, b = p.cost.base, load_problem(tmp_path).cost.base
        assert a.nnz == b.nnz == 121
        assert np.count_nonzero(a.diagonal()) == 29
        for x, y in ((a.indptr, b.indptr), (a.indices, b.indices), (a.data, b.data)):
            assert np.array_equal(x, y)

    def test_two_vertices_default_is_one_edge(self):
        p = gen_er_maxcut(2)
        lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert np.array_equal(p.cost.to_dense(), -lap / 4.0)
        assert np.array_equal(p.b, np.full(2, 0.5))

    @pytest.mark.parametrize("n", [40.0, True, "40", np.float64(40.0)],
                             ids=["float", "bool", "str", "numpy-float"])
    def test_non_integer_count_rejected(self, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            gen_er_maxcut(n)

    def test_numpy_integer_count_accepted(self):
        a, b = gen_er_maxcut(np.int64(40), seed=7), gen_er_maxcut(40, seed=7)
        assert_same_csr(a.cost.base, b.cost.base)

    def test_default_probability_and_determinism(self):
        a = gen_er_maxcut(40, seed=7)
        b = gen_er_maxcut(40, seed=7)
        assert np.array_equal(a.cost.to_dense(), b.cost.to_dense())
        assert a.beta == 10.0

    def test_tiny_rejected(self):
        with pytest.raises(ValueError):
            gen_er_maxcut(1)


class TestSyntheticOT:
    @pytest.mark.parametrize("k", [2.5, np.float64(3.0), True],
                             ids=["float", "numpy-float", "bool"])
    def test_non_integer_side_rejected(self, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            gen_synthetic_ot(k)

    def test_numpy_integer_side_accepted(self):
        a, b = gen_synthetic_ot(np.int64(3), seed=2), gen_synthetic_ot(3, seed=2)
        assert a.digest == b.digest

    def test_shapes_and_normalization(self):
        p = gen_synthetic_ot(6, seed=0)
        assert isinstance(p, OTProblem)
        assert p.cost.shape == (36, 36)
        assert p.mu.sum() == pytest.approx(1.0, abs=1e-12)
        assert p.nu.sum() == pytest.approx(1.0, abs=1e-12)
        assert p.mu.min() > 0.0

    def test_cost_diagonal_zero_and_max_ten(self):
        c = grid_cost(5)
        assert np.all(np.diag(c) == 0.0)
        assert c.max() == 10.0
        # corner-to-corner pairs achieve the max
        assert c[0, 24] == 10.0

    def test_cost_is_scaled_euclidean(self):
        c = grid_cost(3)
        # (0,0) to (1,1) over (0,0) to (2,2): ratio sqrt(2)/(2 sqrt(2)) = 1/2
        assert c[0, 4] == pytest.approx(c[0, 8] / 2)

    def test_foreground_square_concentrates_mass(self):
        side = round(8 / math.sqrt(2))
        assert side == 6
        for seed in range(20):
            p = gen_synthetic_ot(8, seed=seed)
            # bright square holds most of the mass: 36 cells ~U[0,10) vs 28 ~U[0,1)
            top = np.sort(p.mu)[-side * side:]
            assert top.sum() > 0.75

    def test_deterministic(self):
        a, b = gen_synthetic_ot(5, seed=3), gen_synthetic_ot(5, seed=3)
        assert np.array_equal(a.mu, b.mu) and np.array_equal(a.nu, b.nu)


def write_idx(path, images):
    """Independent IDX writer: big-endian header then raw uint8 pixels."""
    images = np.asarray(images, dtype=np.uint8)
    count, rows, cols = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, count, rows, cols))
        fh.write(images.tobytes())


class TestMnistPair:
    @pytest.mark.parametrize("k, match", [(2.5, "k must be an integer"),
                                          (np.float64(3.0), "k must be an integer"),
                                          (True, "k must be an integer"),
                                          (0, "side at least 1")],
                             ids=["float", "numpy-float", "bool", "zero"])
    def test_bad_side_rejected(self, tmp_path, k, match):
        f = tmp_path / "imgs.idx"
        write_idx(f, np.zeros((2, 6, 6)))
        with pytest.raises(ValueError, match=match):
            load_mnist_pair(f, k)

    def test_identity_pooling_and_offset(self, tmp_path):
        rng = np.random.default_rng(0)
        imgs = rng.integers(0, 256, (3, 6, 6))
        f = tmp_path / "imgs.idx"
        write_idx(f, imgs)
        p = load_mnist_pair(f, 6, seed=1)
        # reconstruct which pair was drawn, then check +0.01 and normalization
        a, b = np.random.default_rng(1).choice(3, size=2, replace=False)
        expect = imgs[a].astype(float).ravel() + 0.01
        assert np.abs(p.mu - expect / expect.sum()).max() < 1e-12
        expect = imgs[b].astype(float).ravel() + 0.01
        assert np.abs(p.nu - expect / expect.sum()).max() < 1e-12

    def test_all_zero_image_becomes_uniform(self, tmp_path):
        f = tmp_path / "zeros.idx"
        write_idx(f, np.zeros((2, 4, 4), dtype=np.uint8))
        p = load_mnist_pair(f, 4, seed=0)
        assert np.abs(p.mu - 1.0 / 16).max() < 1e-15

    def test_block_pooling_exact_means(self, tmp_path):
        img = np.arange(16, dtype=np.uint8).reshape(1, 4, 4)
        imgs = np.concatenate([img, img])
        f = tmp_path / "pool.idx"
        write_idx(f, imgs)
        p = load_mnist_pair(f, 2, seed=0)
        blocks = img[0].astype(float).reshape(2, 2, 2, 2).mean(axis=(1, 3))
        expect = blocks.ravel() + 0.01
        assert np.abs(p.mu - expect / expect.sum()).max() < 1e-12

    def test_fractional_pooling_preserves_mass(self, tmp_path):
        rng = np.random.default_rng(5)
        imgs = rng.integers(0, 256, (2, 7, 7))
        f = tmp_path / "frac.idx"
        write_idx(f, imgs)
        p = load_mnist_pair(f, 3, seed=2)
        assert p.mu.sum() == pytest.approx(1.0, abs=1e-12)
        assert p.mu.min() > 0.0

    def test_parsed_bytes_match_independent_parser(self, tmp_path):
        rng = np.random.default_rng(9)
        imgs = rng.integers(0, 256, (4, 5, 5)).astype(np.uint8)
        f = tmp_path / "ref.idx"
        write_idx(f, imgs)
        raw = f.read_bytes()
        magic, count, rows, cols = struct.unpack(">IIII", raw[:16])
        assert (magic, count, rows, cols) == (0x00000803, 4, 5, 5)
        first = np.frombuffer(raw[16:16 + 25], dtype=np.uint8).reshape(5, 5)
        assert np.array_equal(first, imgs[0])
        from entrodual.datasets import _read_idx_images
        parsed = _read_idx_images(f)
        assert np.array_equal(parsed[0], imgs[0].astype(float))

    def test_bad_magic_reports_offset(self, tmp_path):
        f = tmp_path / "bad.idx"
        f.write_bytes(struct.pack(">IIII", 0x00000807, 1, 2, 2) + bytes(4))
        with pytest.raises(ValueError, match="at byte 0"):
            load_mnist_pair(f, 2, seed=0)

    def test_truncated_header_reports_offset(self, tmp_path):
        f = tmp_path / "short.idx"
        f.write_bytes(struct.pack(">I", 0x00000803) + b"\x00\x00")
        with pytest.raises(ValueError, match="at byte 6"):
            load_mnist_pair(f, 2, seed=0)

    def test_truncated_pixels_report_offset(self, tmp_path):
        f = tmp_path / "cut.idx"
        f.write_bytes(struct.pack(">IIII", 0x00000803, 2, 3, 3) + bytes(10))
        with pytest.raises(ValueError, match="at byte 26"):
            load_mnist_pair(f, 3, seed=0)


class TestPermSynch:
    def test_model_validation(self):
        with pytest.raises(ValueError, match="registry"):
            PermSynchModel(3, 5, 4, 0.1)
        with pytest.raises(ValueError, match="probability"):
            PermSynchModel(3, 2, 4, 1.5)
        with pytest.raises(ValueError, match="positive"):
            PermSynchModel(0, 2, 4, 0.5)

    @pytest.mark.parametrize("field, counts", [
        ("num_images", (10.0, 3, 5)), ("num_images", (True, 3, 5)),
        ("keypoints", (4, 3.0, 5)), ("keypoints", (4, True, 5)),
        ("registry", (4, 3, 5.0)), ("registry", (4, 1, True))],
        ids=["images-float", "images-bool", "keypoints-float", "keypoints-bool",
             "registry-float", "registry-bool"])
    def test_non_integer_counts_rejected(self, field, counts):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            PermSynchModel(*counts, 0.1)

    @pytest.mark.parametrize("model", [
        PermSynchModel(6, 4, 9, 0.0, seed=3),
        PermSynchModel(6, 4, 9, 1.0, seed=3),
        PermSynchModel(5, 1, 3, 0.5, seed=1),
        PermSynchModel(1, 3, 5, 0.5, seed=2),
        PermSynchModel(2, 3, 5, 1.0, seed=2),
        PermSynchModel(7, 4, 4, 0.4, seed=6),
        PermSynchModel(20, 10, 30, 0.3, seed=8),
    ], ids=["clean", "all-corrupted", "one-keypoint", "one-image",
            "two-images", "registry-equals-keypoints", "mixed"])
    def test_csr_matches_per_pair_loop_reference(self, model):
        for kind in ("strong", "weak"):
            assert_same_csr(gen_permsynch(model, 1.0, kind).cost.base,
                            reference_permsynch_cost(model).base)

    def test_uncorrupted_shared_registry_gives_permutations(self):
        model = PermSynchModel(num_images=4, keypoints=3, registry=3,
                               corruption=0.0, seed=2)
        p = gen_permsynch(model, beta=1.0, kind="strong")
        c = p.cost.to_dense()
        for i in range(4):
            for j in range(4):
                blk = -c[i * 3:(i + 1) * 3, j * 3:(j + 1) * 3]
                if i == j:
                    assert np.all(blk == 0.0)
                else:
                    assert np.all(blk.sum(axis=0) == 1.0)
                    assert np.all(blk.sum(axis=1) == 1.0)

    def test_single_keypoint_blocks_scalar(self):
        model = PermSynchModel(num_images=3, keypoints=1, registry=2,
                               corruption=0.5, seed=0)
        p = gen_permsynch(model, beta=1.0)
        c = p.cost.to_dense()
        assert set(np.unique(c)) <= {0.0, -1.0}

    def test_block_spectral_norms_at_most_one(self):
        model = PermSynchModel(num_images=5, keypoints=4, registry=6,
                               corruption=0.3, seed=4)
        p = gen_permsynch(model, beta=1.0)
        c = p.cost.to_dense()
        for i in range(5):
            for j in range(5):
                blk = c[i * 4:(i + 1) * 4, j * 4:(j + 1) * 4]
                assert np.linalg.norm(blk, 2) <= 1.0 + 1e-12

    def test_kind_selects_problem_class(self):
        model = PermSynchModel(num_images=3, keypoints=2, registry=4,
                               corruption=0.1, seed=1)
        assert isinstance(gen_permsynch(model, 1.0, "strong"),
                          StrongPermSyncProblem)
        assert isinstance(gen_permsynch(model, 1.0, "weak"),
                          WeakPermSyncProblem)
        with pytest.raises(ValueError):
            gen_permsynch(model, 1.0, "medium")

    def test_corruption_changes_matches(self):
        clean = PermSynchModel(num_images=6, keypoints=4, registry=4,
                               corruption=0.0, seed=3)
        dirty = PermSynchModel(num_images=6, keypoints=4, registry=4,
                               corruption=1.0, seed=3)
        a = gen_permsynch(clean, 1.0).cost.to_dense()
        b = gen_permsynch(dirty, 1.0).cost.to_dense()
        assert not np.array_equal(a, b)


class TestSinkhornReference:
    def test_singleton(self):
        p = OTProblem(np.array([[0.7]]), np.array([1.0]), np.array([1.0]), 2.0)
        res = sinkhorn_reference(p, iters=5, tol=1e-12)
        assert isinstance(res, SinkhornResult)
        assert res.converged
        assert res.objective == pytest.approx(-0.7, abs=1e-12)
        assert res.phi == pytest.approx(0.0) and res.psi == pytest.approx(0.0)

    def test_symmetric_zero_cost(self):
        p = OTProblem(np.zeros((3, 3)), np.full(3, 1 / 3), np.full(3, 1 / 3), 4.0)
        res = sinkhorn_reference(p, iters=10, tol=1e-13)
        assert res.converged
        assert np.abs(res.phi).max() < 1e-13
        assert np.abs(res.psi).max() < 1e-13

    def test_fixed_point_zeroes_the_gradient(self):
        rng = np.random.default_rng(6)
        p = OTProblem(rng.uniform(0, 1, (8, 8)), rng.dirichlet(np.ones(8)),
                      rng.dirichlet(np.ones(8)), beta=10.0)
        res = sinkhorn_reference(p, tol=1e-12)
        assert res.converged
        g = p.dense_eval((res.phi, res.psi))[0]
        assert p.feasibility_error(g) <= 1e-11

    def test_non_convergence_flagged(self):
        rng = np.random.default_rng(7)
        p = OTProblem(rng.uniform(0, 1, (6, 6)), rng.dirichlet(np.ones(6)),
                      rng.dirichlet(np.ones(6)), beta=10.0)
        res = sinkhorn_reference(p, iters=1, tol=1e-15)
        assert not res.converged
        assert res.iterations == 1
        assert res.marginal_error > 1e-15
