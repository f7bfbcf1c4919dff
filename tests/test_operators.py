import itertools
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply
from scipy.stats import ortho_group

from entrodual import (
    SpectralInterval,
    SymOperator,
    dense_gibbs,
    expm_action,
    load_matrix_market,
    operators,
    spectral_bounds,
    vn_entropy,
)
from entrodual.datasets import gen_er_maxcut
from entrodual.probes import probe_gibbs
from entrodual.problems import (MaxCutProblem, StrongPermSyncProblem,
                                WeakPermSyncProblem)
from entrodual.solver import SolverConfig, solve


def random_symmetric(rng, n, norm=None):
    a = rng.standard_normal((n, n))
    a = (a + a.T) / 2.0
    if norm is not None:
        a *= norm / np.abs(np.linalg.eigvalsh(a)).max()
    return a


class TestApply:
    def test_identity(self):
        op = SymOperator.from_dense(np.eye(2))
        np.testing.assert_allclose(op.apply(np.array([3.0, -1.0])), [3.0, -1.0])

    def test_diagonal(self):
        op = SymOperator.from_dense(np.diag([1.0, 2.0]))
        np.testing.assert_allclose(op.apply(np.array([1.0, 1.0])), [1.0, 2.0])

    def test_sparse_matches_dense_mirror(self):
        rng = np.random.default_rng(7)
        a = random_symmetric(rng, 16)
        a[np.abs(a) < 0.7] = 0.0
        i, j = np.nonzero(np.triu(a))
        op = SymOperator.from_triplets(16, i, j, a[i, j])
        dense = SymOperator.from_dense(a)
        v = rng.standard_normal(16)
        np.testing.assert_allclose(op.apply(v), dense.apply(v), atol=1e-12)

    def test_duplicate_triplets_summed(self):
        op = SymOperator.from_triplets(2, [0, 1, 1], [1, 0, 0], [1.0, 1.0, 0.5])
        # (0,1) and the mirrored (1,0) entries accumulate to 2.5
        np.testing.assert_allclose(op.to_dense(), [[0.0, 2.5], [2.5, 0.0]])

    def test_adjoint_symmetry(self):
        rng = np.random.default_rng(3)
        a = random_symmetric(rng, 12)
        op = SymOperator.from_dense(a)
        u, v = rng.standard_normal(12), rng.standard_normal(12)
        lhs, rhs = u @ op.apply(v), op.apply(u) @ v
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_dimension_mismatch(self):
        op = SymOperator.from_dense(np.eye(3))
        with pytest.raises(Exception):
            op.apply(np.ones(4))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            SymOperator.from_dense(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_block_vector_apply(self):
        rng = np.random.default_rng(11)
        a = random_symmetric(rng, 9)
        op = SymOperator.from_dense(a)
        v = rng.standard_normal((9, 4))
        np.testing.assert_allclose(op.apply(v), a @ v, atol=1e-12)

    def test_lazy_composition_matches_dense(self):
        rng = np.random.default_rng(5)
        a = random_symmetric(rng, 8)
        blocks = np.stack([random_symmetric(rng, 4) for _ in range(2)])
        d = rng.standard_normal(8)
        op = SymOperator.from_dense(a).folded(1.7, diag=d - 0.3, blocks=blocks)
        ref = a + np.diag(d) - 0.3 * np.eye(8)
        ref[:4, :4] += blocks[0]
        ref[4:, 4:] += blocks[1]
        ref *= 1.7
        np.testing.assert_allclose(op.to_dense(), ref, atol=1e-12)
        v = rng.standard_normal(8)
        np.testing.assert_allclose(op.apply(v), ref @ v, atol=1e-12)

    def test_to_sparse_matches_to_dense(self):
        rng = np.random.default_rng(6)
        a = random_symmetric(rng, 6)
        a[np.abs(a) < 0.7] = 0.0
        blocks = np.stack([random_symmetric(rng, 3) for _ in range(2)])
        for base in (SymOperator.from_dense(a),
                     SymOperator.from_sparse(sp.csr_array(a))):
            op = base.folded(diag=rng.standard_normal(6) + 0.4, blocks=blocks)
            np.testing.assert_allclose(op.to_sparse().toarray(), op.to_dense(),
                                       atol=1e-12)


class TestAccumulateApply:
    """apply(v, into=b) adds A v into b through scipy's private CSR kernel.

    These cases pin that kernel to b + A @ v; they are the first to fail if a
    scipy release changes its arguments or semantics.
    """

    @pytest.mark.parametrize("index", [np.int32, np.int64])
    @pytest.mark.parametrize("shape", [(11,), (11, 1), (11, 6)])
    def test_adds_the_product(self, index, shape):
        rng = np.random.default_rng(31)
        a = random_symmetric(rng, 11)
        a[np.abs(a) < 0.6] = 0.0
        base = sp.csr_array(a)
        base.indptr = base.indptr.astype(index)
        base.indices = base.indices.astype(index)
        op = SymOperator(base)
        v = rng.standard_normal(shape)
        b = rng.standard_normal(shape)
        want = b + a @ v
        assert op.apply(v, into=b) is b
        np.testing.assert_allclose(b, want, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(op.apply(v), a @ v, rtol=1e-13, atol=1e-13)

    def test_operator_with_add_ons(self):
        rng = np.random.default_rng(32)
        op, ref = shifted_case("sparse", "weak", rng)
        v = rng.standard_normal((NB * K, 3))
        b = rng.standard_normal((NB * K, 3))
        want = b + ref @ v
        op.apply(v, into=b)
        np.testing.assert_allclose(b, want, atol=1e-13)

    @pytest.mark.parametrize("bad", ["fortran", "strided", "columns", "rows",
                                     "vector", "float32", "read-only", "alias"])
    def test_rejects_an_unsafe_target(self, bad):
        op = SymOperator.from_dense(2.0 * np.eye(6))
        v = np.ones((6, 4))
        into = {"fortran": np.zeros((6, 4), order="F"),
                "strided": np.zeros((6, 8))[:, ::2],
                "columns": np.zeros((6, 3)),
                "rows": np.zeros((7, 4)),
                "vector": np.zeros(24),
                "float32": np.zeros((6, 4), dtype=np.float32),
                "read-only": np.zeros((6, 4)),
                "alias": v}[bad]
        if bad == "read-only":
            into.flags.writeable = False
        before = into.copy()
        with pytest.raises(ValueError, match="into"):
            op.apply(v, into=into)
        np.testing.assert_array_equal(into, before)

    def test_rejects_a_short_vector_target(self):
        op = SymOperator.from_dense(np.eye(6))
        with pytest.raises(ValueError, match="into"):
            op.apply(np.ones(6), into=np.zeros(5))


def assert_encloses(op, dense, seed):
    iv = spectral_bounds(op, seed=seed)
    ev = np.linalg.eigvalsh(dense)
    slack = 1e-12 * max(1.0, np.abs(ev).max())
    assert iv.certified
    assert iv.lo <= ev[0] + slack and ev[-1] <= iv.hi + slack, (iv, ev[[0, -1]])
    return iv


SEEDS = st.integers(0, 2**32 - 1)


class TestSpectralBoundsContainment:
    """The Lanczos interval holds the eigvalsh spectrum on hard spectra."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 60), gap=st.floats(1e-12, 1e-3), seed=SEEDS)
    def test_near_degenerate_extremes(self, n, gap, seed):
        rng = np.random.default_rng(seed)
        ev = np.sort(rng.uniform(-1.0, 1.0, n))
        ev[0], ev[-1] = -1.0, 1.0
        ev[1], ev[-2] = -1.0 + gap, 1.0 - gap
        q = ortho_group.rvs(n, random_state=rng)
        a = (q * ev) @ q.T
        assert_encloses(SymOperator.from_dense((a + a.T) / 2.0), a, seed)

    @settings(max_examples=40, deadline=None)
    @given(left=st.integers(1, 30), right=st.integers(1, 30),
           density=st.floats(0.05, 1.0), seed=SEEDS)
    def test_bipartite_spectrum_is_symmetric(self, left, right, density, seed):
        rng = np.random.default_rng(seed)
        n = left + right
        a = np.zeros((n, n))
        a[:left, left:] = (rng.random((left, right)) < density) * rng.uniform(
            0.5, 2.0, (left, right))
        a += a.T
        assert_encloses(SymOperator.from_sparse(sp.csr_array(a)), a, seed)

    @settings(max_examples=40, deadline=None)
    @given(sizes=st.lists(st.integers(1, 25), min_size=2, max_size=6),
           seed=SEEDS)
    def test_disconnected_graph(self, sizes, seed):
        # a Laplacian per component, each on its own scale; size-1 components
        # are isolated vertices
        rng = np.random.default_rng(seed)
        blocks = []
        for k in sizes:
            adj = np.triu(rng.random((k, k)) < 0.4, 1) * rng.uniform(0.1, 10.0)
            adj = adj + adj.T
            blocks.append(np.diag(adj.sum(axis=1)) - adj)
        a = sp.block_diag(blocks).toarray()
        assert_encloses(SymOperator.from_sparse(sp.csr_array(a)), a, seed)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 300), seed=SEEDS)
    def test_zero_operator(self, n, seed):
        iv = spectral_bounds(SymOperator.zeros(n), seed=seed)
        assert (iv.lo, iv.hi, iv.certified) == (0.0, 0.0, True)

    @settings(max_examples=40, deadline=None)
    @given(value=st.floats(-1e6, 1e6), seed=SEEDS)
    def test_one_by_one(self, value, seed):
        a = np.array([[value]])
        iv = assert_encloses(SymOperator.from_dense(a), a, seed)
        assert iv.width <= 1e-12 * max(1.0, abs(value))


class TestSpectralBounds:
    def test_diagonal_spectrum(self):
        op = SymOperator.from_dense(np.diag([1.0, 2.0, 3.0]))
        iv = spectral_bounds(op)
        assert iv.lo <= 1.0 and iv.hi >= 3.0
        assert iv.certified

    def test_identity(self):
        iv = spectral_bounds(SymOperator.from_dense(np.eye(4)), tol=1e-6)
        assert abs(iv.lo - 1.0) <= 1e-6 and abs(iv.hi - 1.0) <= 1e-6

    def test_contains_dense_range_12x12(self):
        rng = np.random.default_rng(0)
        a = random_symmetric(rng, 12)
        iv = spectral_bounds(SymOperator.from_dense(a))
        ev = np.linalg.eigvalsh(a)
        assert iv.lo <= ev[0] and ev[-1] <= iv.hi

    def test_contains_dense_range_random_sizes(self):
        rng = np.random.default_rng(42)
        for k in range(25):
            n = int(rng.integers(1, 65))
            a = random_symmetric(rng, n)
            iv = spectral_bounds(SymOperator.from_dense(a), seed=k)
            ev = np.linalg.eigvalsh(a)
            assert iv.lo <= ev[0] and ev[-1] <= iv.hi, f"n={n} seed={k}"

    def test_magnitude_tie_falls_back(self):
        # eigenvalues are exactly {-1, +1}; the plain pass cannot separate them
        op = SymOperator.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        iv = spectral_bounds(op)
        assert iv.lo <= -1.0 and iv.hi >= 1.0

    def test_uncertified_on_no_budget(self):
        rng = np.random.default_rng(1)
        a = random_symmetric(rng, 30)
        iv = spectral_bounds(SymOperator.from_dense(a), tol=1e-12, max_iter=1)
        assert not iv.certified

    def test_interval_helpers(self):
        iv = SpectralInterval(-1.0, 3.0)
        assert iv.padded(0.5).hi == 3.5
        with pytest.raises(ValueError):
            SpectralInterval(1.0, 0.0)


class TestExpmAction:
    def test_zero_matrix(self):
        op = SymOperator.from_dense(np.zeros((5, 5)))
        z = np.arange(5.0)
        np.testing.assert_allclose(expm_action(op, SpectralInterval(0.0, 0.0), z), z,
                                   atol=1e-12)

    def test_diagonal(self):
        d = np.array([-2.0, 0.0, 1.5])
        op = SymOperator.from_dense(np.diag(d))
        z = np.array([1.0, -2.0, 0.5])
        y = expm_action(op, SpectralInterval(-2.0, 1.5), z, tol=1e-12)
        np.testing.assert_allclose(y, np.exp(d) * z, rtol=1e-10)

    def test_random_32x32_vs_dense_oracle(self):
        rng = np.random.default_rng(2)
        for k in range(10):
            a = random_symmetric(rng, 32, norm=rng.uniform(1.0, 50.0))
            op = SymOperator.from_dense(a)
            iv = spectral_bounds(op, seed=k)
            z = rng.standard_normal(32)
            y = expm_action(op, iv, z, tol=1e-10)
            ref = expm(a) @ z
            assert np.linalg.norm(y - ref) <= 1e-8 * np.linalg.norm(ref)

    def test_block_input(self):
        rng = np.random.default_rng(9)
        a = random_symmetric(rng, 10, norm=3.0)
        op = SymOperator.from_dense(a)
        z = rng.standard_normal((10, 7))
        y = expm_action(op, spectral_bounds(op), z)
        np.testing.assert_allclose(y, expm(a) @ z, rtol=1e-9, atol=1e-12)

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError):
            SpectralInterval(2.0, 1.0)

    def test_tol_range(self):
        op = SymOperator.from_dense(np.eye(2))
        with pytest.raises(ValueError):
            expm_action(op, SpectralInterval(1.0, 1.0), np.ones(2), tol=0.0)

    def test_agrees_with_gibbs_route(self):
        # same quantity through the eigendecomposition route, up to normalization
        rng = np.random.default_rng(8)
        for k in range(6):
            n = int(rng.integers(2, 65))
            beta = rng.uniform(0.1, 5.0)
            a = random_symmetric(rng, n)
            a *= min(1.0, 50.0 / (beta * np.abs(np.linalg.eigvalsh(a)).max()))
            op = SymOperator.from_dense(a).folded(-beta)
            z = rng.standard_normal(n)
            y = expm_action(op, spectral_bounds(op, seed=k), z, tol=1e-10)
            g = dense_gibbs(SymOperator.from_dense(a), beta)
            ref = np.exp(g.log_partition) * (g.density @ z)
            assert np.linalg.norm(y - ref) <= 1e-8 * np.linalg.norm(ref)


NB, K = 4, 3


def shifted_case(base_kind, family, rng):
    """(operator, reference matrix) for one base kind and one problem's shift.

    The cost has entries inside the diagonal blocks, so the diagonal and block
    terms of the shift land on positions the base already holds.
    """
    n = NB * K
    a = random_symmetric(rng, n, norm=2.0)
    a[np.abs(a) < 0.05] = 0.0
    cost = (SymOperator.from_dense(a) if base_kind == "dense"
            else SymOperator.from_sparse(sp.csr_array(a)))
    ref = a.copy()
    lam = rng.standard_normal(n)
    g = rng.standard_normal((NB, K, K))
    blocks = (g + g.transpose(0, 2, 1)) / 2.0
    mu = rng.standard_normal(NB)
    if family == "cost":
        return cost, ref
    if family == "maxcut":
        ref -= np.diag(lam)
        return MaxCutProblem(cost, np.full(n, 1.0 / n), 1.0).shifted_operator(lam), ref
    if family == "strong":
        ref -= sp.block_diag(list(blocks)).toarray()
        return StrongPermSyncProblem(cost, NB, K, 1.0).shifted_operator(blocks), ref
    ref -= np.diag(lam)
    ref -= sp.block_diag([m * np.ones((K, K)) / K for m in mu]).toarray()
    return WeakPermSyncProblem(cost, NB, K, 1.0).shifted_operator((lam, mu)), ref


@pytest.mark.parametrize("family", ["cost", "maxcut", "strong", "weak"])
@pytest.mark.parametrize("base_kind", ["dense", "sparse"])
class TestFoldedKernel:
    def test_apply_to_dense_to_sparse_agree(self, base_kind, family):
        rng = np.random.default_rng(21)
        op, ref = shifted_case(base_kind, family, rng)
        v = rng.standard_normal((NB * K, 5))
        np.testing.assert_allclose(op.to_dense(), ref, atol=1e-14)
        np.testing.assert_allclose(op.to_sparse().toarray(), ref, atol=1e-14)
        np.testing.assert_allclose(op.apply(v), ref @ v, atol=1e-13)
        np.testing.assert_allclose(op.apply(v[:, 0]), ref @ v[:, 0], atol=1e-13)
        folded = op.folded(-0.7, 0.3)
        np.testing.assert_allclose(folded.apply(v), (-0.7 * ref + 0.3 * np.eye(NB * K)) @ v,
                                   atol=1e-13)
        assert op.inf_norm_bound() == pytest.approx(np.abs(ref).sum(axis=1).max(),
                                                     rel=1e-14)

    def test_expm_action_matches_expm_multiply(self, base_kind, family):
        rng = np.random.default_rng(22)
        op, ref = shifted_case(base_kind, family, rng)
        z = rng.standard_normal((NB * K, 6))
        iv = spectral_bounds(op, seed=1)
        y = expm_action(op, iv, z, tol=1e-12)
        want = expm_multiply(sp.csr_array(ref), z)
        assert np.linalg.norm(y - want) <= 1e-10 * np.linalg.norm(want)
        # shift puts the top of the mapped interval at -0.5
        shift = 1.5 * iv.lo - 0.5
        y = expm_action(op, iv, z[:, 0], tol=1e-12, scale=-1.5, shift=shift)
        want = expm_multiply(sp.csr_array(-1.5 * ref + shift * np.eye(NB * K)), z[:, 0])
        assert np.linalg.norm(y - want) <= 1e-10 * np.linalg.norm(want)

    def test_probe_gibbs_matches_expm_multiply(self, base_kind, family):
        rng = np.random.default_rng(23)
        op, ref = shifted_case(base_kind, family, rng)
        z = rng.choice([-1.0, 1.0], size=(NB * K, 8))
        beta = 3.0
        iv = spectral_bounds(op, seed=2)
        batch = probe_gibbs(op, beta, iv, z, tol=1e-12)
        shifted = -0.5 * beta * (ref - iv.lo * np.eye(NB * K))
        want = expm_multiply(sp.csr_array(shifted), z)
        assert np.linalg.norm(batch.images - want) <= 1e-10 * np.linalg.norm(want)
        # the discarded factor is exp(-beta lo / 2)
        unshifted = expm_multiply(sp.csr_array(-0.5 * beta * ref), z)
        assert (np.linalg.norm(np.exp(-0.5 * beta * iv.lo) * batch.images - unshifted)
                <= 1e-10 * np.linalg.norm(unshifted))

    def test_zero_width_interval_returns_scaled_probes(self, base_kind, family):
        rng = np.random.default_rng(24)
        op, _ = shifted_case(base_kind, family, rng)
        z = rng.standard_normal((NB * K, 3))
        np.testing.assert_array_equal(
            expm_action(op, SpectralInterval(0.6, 0.6), z), np.exp(0.6) * z)
        np.testing.assert_array_equal(
            expm_action(op, SpectralInterval(0.6, 0.6), z, scale=-2.0, shift=0.5),
            np.exp(-0.7) * z)


@pytest.mark.parametrize("family", ["maxcut", "strong", "weak"])
def test_expm_action_on_shifted_cost_builds_no_pattern(monkeypatch, family):
    """The shifted operator keeps the pattern it was written into, so the
    Chebyshev fold inside expm_action reuses it."""
    rng = np.random.default_rng(25)
    op, _ = shifted_case("sparse", family, rng)
    iv = spectral_bounds(op, seed=3)
    built = []
    fold_pattern = operators._fold_pattern
    monkeypatch.setattr(operators, "_fold_pattern",
                        lambda *args: built.append(args) or fold_pattern(*args))
    z = rng.standard_normal((NB * K, 2))
    first = expm_action(op, iv, z)
    np.testing.assert_array_equal(expm_action(op, iv, z), first)
    assert built == []


def large_shifted_operator(family, rng):
    """A shifted operator of one problem family on a sparse 1030-vertex graph cost."""
    cost = gen_er_maxcut(1030, seed=4).cost
    if family == "maxcut":
        return MaxCutProblem(cost, np.full(1030, 1.0 / 1030), 1.0).shifted_operator(
            0.1 * rng.standard_normal(1030))
    if family == "strong":
        g = rng.standard_normal((103, 10, 10))
        return StrongPermSyncProblem(cost, 103, 10, 1.0).shifted_operator(
            0.05 * (g + g.transpose(0, 2, 1)))
    return WeakPermSyncProblem(cost, 103, 10, 1.0).shifted_operator(
        (0.1 * rng.standard_normal(1030), 0.1 * rng.standard_normal(103)))


class TestColumnBlocks:
    @pytest.mark.parametrize("family", ["maxcut", "strong", "weak"])
    def test_block_split_changes_no_bits(self, family):
        rng = np.random.default_rng(26)
        op = large_shifted_operator(family, rng)
        s = 300
        width = -(-operators._BLOCK_ENTRIES // op.n)
        assert s > 2 * width and s % width, "S must span three blocks, the last ragged"
        z = rng.choice([-1.0, 1.0], size=(op.n, s))
        iv = spectral_bounds(op, seed=5)
        kw = dict(tol=1e-12, scale=-1.5, shift=1.5 * iv.lo)
        y = expm_action(op, iv, z, **kw)
        for j in range(s):
            np.testing.assert_array_equal(y[:, j], expm_action(op, iv, z[:, j:j + 1], **kw)[:, 0])
        want = expm_multiply(-1.5 * (op.to_sparse() - iv.lo * sp.eye_array(op.n)), z)
        assert np.linalg.norm(y - want) <= 1e-10 * np.linalg.norm(want)

    def test_more_lanes_than_cores_compute_every_column_once(self, monkeypatch):
        rng = np.random.default_rng(28)
        op = large_shifted_operator("maxcut", rng)
        z = rng.choice([-1.0, 1.0], size=(op.n, 300))
        iv = spectral_bounds(op, seed=7)
        whole = expm_action(op, iv, z)
        # 43 blocks of 7 columns over 8 lanes, switching threads every microsecond
        monkeypatch.setattr(operators, "_BLOCK_ENTRIES", 7 * op.n)
        monkeypatch.setattr(operators, "_LANES", 8)
        monkeypatch.setattr(operators, "_POOL", ThreadPoolExecutor(max_workers=8))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            np.testing.assert_array_equal(expm_action(op, iv, z), whole)
        finally:
            sys.setswitchinterval(interval)
            operators._POOL.shutdown()

    def test_worker_error_reaches_the_caller_and_leaves_the_pool_working(self, monkeypatch):
        rng = np.random.default_rng(27)
        op = large_shifted_operator("maxcut", rng)
        z = rng.choice([-1.0, 1.0], size=(op.n, 300))
        iv = spectral_bounds(op, seed=6)
        healthy = expm_action(op, iv, z)
        apply, block_calls, lock = SymOperator.apply, itertools.count(1), threading.Lock()

        def faulty(self, v, into=None):
            if np.ndim(v) == 2:
                with lock:
                    call = next(block_calls)
                if call == 2:
                    raise ArithmeticError("injected fault")
            return apply(self, v, into)

        monkeypatch.setattr(SymOperator, "apply", faulty)
        with pytest.raises(ArithmeticError, match="injected fault"):
            expm_action(op, iv, z)
        block_calls = itertools.count(1)
        problem = gen_er_maxcut(1030, seed=4)
        with pytest.raises(RuntimeError, match="solver failed at iteration 0: injected"):
            solve(problem, SolverConfig(iters=2, samples=300, seed=1))
        monkeypatch.setattr(SymOperator, "apply", apply)
        np.testing.assert_array_equal(expm_action(op, iv, z), healthy)


class TestDenseGibbs:
    def test_zero_matrix(self):
        g = dense_gibbs(SymOperator.from_dense(np.zeros((2, 2))), beta=1.0)
        np.testing.assert_allclose(g.density, np.eye(2) / 2.0, atol=1e-14)
        assert abs(g.log_partition - np.log(2.0)) <= 1e-12

    def test_dominant_ground_state(self):
        g = dense_gibbs(SymOperator.from_dense(np.diag([0.0, 100.0])), beta=1.0)
        e1 = np.zeros((2, 2))
        e1[0, 0] = 1.0
        np.testing.assert_allclose(g.density, e1, atol=1e-8)

    def test_random_8x8_vs_expm_oracle(self):
        rng = np.random.default_rng(4)
        a = random_symmetric(rng, 8)
        beta = 2.5
        g = dense_gibbs(SymOperator.from_dense(a), beta)
        raw = expm(-beta * a)
        np.testing.assert_allclose(g.density, raw / np.trace(raw), atol=1e-12)
        assert abs(np.trace(g.density) - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(g.density)[0] >= -1e-10
        assert abs(g.log_partition - np.log(np.trace(raw))) <= 1e-10

    def test_shift_cancels_at_large_beta(self):
        # without the internal spectral shift this would overflow
        a = np.diag([-400.0, 0.0, 150.0])
        g = dense_gibbs(SymOperator.from_dense(a), beta=2.0)
        assert np.isfinite(g.log_partition)
        np.testing.assert_allclose(g.density[0, 0], 1.0, atol=1e-12)
        assert abs(g.log_partition - 800.0) <= 1e-9

    def test_dense_limit_guard(self):
        # the guard raises before any eigendecomposition
        op = SymOperator.zeros(operators.DENSE_LIMIT + 1)
        with pytest.raises(ValueError, match="probe"):
            dense_gibbs(op, beta=1.0)

    def test_factor_reproduces_density(self):
        rng = np.random.default_rng(13)
        g = dense_gibbs(SymOperator.from_dense(random_symmetric(rng, 9)), beta=1.7)
        assert g.factor.shape == (9, 9)
        np.testing.assert_allclose(g.factor @ g.factor.T, g.density, atol=1e-15)
        assert abs(np.sum(g.factor * g.factor) - 1.0) <= 1e-14


class TestEntropy:
    def test_uniform(self):
        assert abs(vn_entropy(np.eye(4) / 4.0) + np.log(4.0)) <= 1e-12

    def test_pure_state(self):
        u = np.array([0.6, 0.8])
        assert abs(vn_entropy(np.outer(u, u))) <= 1e-12

    def test_rank_deficient(self):
        assert abs(vn_entropy(np.diag([0.5, 0.5, 0.0])) + np.log(2.0)) <= 1e-12

    def test_rejects_non_psd(self):
        with pytest.raises(ValueError, match="PSD"):
            vn_entropy(np.diag([1.5, -0.5]))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            vn_entropy(np.eye(3))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 16), st.integers(0, 10_000))
    def test_range_property(self, n, seed):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        p = rng.dirichlet(np.ones(n))
        x = (q * p) @ q.T
        s = vn_entropy((x + x.T) / 2.0)
        assert -np.log(n) - 1e-10 <= s <= 1e-10


class TestGibbsVariational:
    def test_gibbs_minimizes_free_energy(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            n = int(rng.integers(2, 12))
            a = random_symmetric(rng, n)
            beta = rng.uniform(0.2, 4.0)
            g = dense_gibbs(SymOperator.from_dense(a), beta)
            fx = np.trace(a @ g.density) + vn_entropy(g.density) / beta
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            p = rng.dirichlet(np.ones(n))
            y = (q * p) @ q.T
            y = (y + y.T) / 2.0
            fy = np.trace(a @ y) + vn_entropy(y) / beta
            assert fy >= fx - 1e-9


class TestMatrixMarket:
    def test_sparse_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        a = random_symmetric(rng, 9)
        a[np.abs(a) < 0.9] = 0.0
        path = tmp_path / "m.mtx"
        scipy.io.mmwrite(path, sp.coo_matrix(a), symmetry="symmetric")
        op = load_matrix_market(path)
        np.testing.assert_allclose(op.to_dense(), a, atol=1e-12)

    def test_dense_array_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        a = random_symmetric(rng, 5)
        path = tmp_path / "d.mtx"
        scipy.io.mmwrite(path, a)
        op = load_matrix_market(path)
        np.testing.assert_allclose(op.to_dense(), a, atol=1e-10)

    def test_rejects_asymmetric(self, tmp_path):
        path = tmp_path / "bad.mtx"
        scipy.io.mmwrite(path, sp.coo_matrix(np.array([[0.0, 1.0], [0.0, 0.0]])))
        with pytest.raises(ValueError):
            load_matrix_market(path)
