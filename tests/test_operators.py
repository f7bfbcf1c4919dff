import itertools
import math
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
from scipy.special import ive
from scipy.stats import ortho_group

from entrodual import (
    ProbeBatch,
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

    def test_computes_in_the_operator_dtype_and_rejects_any_other(self):
        rng = np.random.default_rng(33)
        a = random_symmetric(rng, 6)
        op64 = SymOperator.from_dense(a)
        op32 = SymOperator(sp.csr_array(a.astype(np.float32)))
        v = rng.standard_normal((6, 4))
        got = op32.apply(v.astype(np.float32))
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, a @ v, rtol=1e-5, atol=1e-5)
        into = np.zeros((6, 4), dtype=np.float32)
        assert op32.apply(v.astype(np.float32), into=into) is into
        for op, vec, target, wrong, right in [
                (op64, v.astype(np.float32), None, "v is float32", "float64"),
                (op32, v, None, "v is float64", "float32"),
                (op64, v, np.zeros((6, 4), dtype=np.float32), "into is float32", "float64"),
                (op32, v.astype(np.float32), np.zeros((6, 4)), "into is float64", "float32")]:
            before = None if target is None else target.copy()
            with pytest.raises(ValueError, match=f"{wrong} but the operator is {right}"):
                op.apply(vec, into=target)
            if target is not None:
                np.testing.assert_array_equal(target, before)

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
        iv = spectral_bounds(SymOperator.from_dense(np.eye(4)))
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

    def test_uncertified_on_no_budget(self, monkeypatch):
        rng = np.random.default_rng(1)
        a = random_symmetric(rng, 30)
        monkeypatch.setattr(operators, "_MAX_STEPS", 1)
        iv = spectral_bounds(SymOperator.from_dense(a))
        assert not iv.certified

    def test_interval_helpers(self):
        iv = SpectralInterval(-1.0, 3.0)
        assert iv.padded(0.5).hi == 3.5
        with pytest.raises(ValueError):
            SpectralInterval(1.0, 0.0)


class TestInputChecks:
    """Checks of public inputs raise ValueError, so they also run under python -O."""

    def test_base_must_be_square(self):
        with pytest.raises(ValueError, match="base must be square"):
            SymOperator(sp.csr_array((2, 3)))

    @pytest.mark.parametrize("shape", [(3, 2, 2), (2, 2, 3)])
    def test_blocks_must_tile_the_diagonal(self, shape):
        with pytest.raises(ValueError, match="do not tile"):
            SymOperator.from_dense(np.eye(4)).folded(blocks=np.zeros(shape))

    def test_diag_needs_one_entry_per_row(self):
        # one entry would broadcast onto every row: diagonal [6, 7, 8]
        op = SymOperator.from_dense(np.diag([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError, match="diag needs one entry per row"):
            op.folded(diag=np.array([5.0]))

    @pytest.mark.parametrize("r", [-0.5, math.nan])
    def test_padding_must_be_nonnegative(self, r):
        with pytest.raises(ValueError, match="r must be nonnegative"):
            SpectralInterval(0.0, 1.0).padded(r)


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


class TestChebyshevDegree:
    """The series keeps the fewest terms whose dropped tail meets the target,
    and never fewer than two."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("h", [1e-9, 0.5, 2.0, 6.31, 8.76, 50.0, 400.0])
    def test_fewest_terms_within_the_target(self, h, dtype):
        tol = 1e-8
        target = max(tol * 1e-3, float(np.finfo(dtype).eps))
        q = operators._chebyshev_degree(h, tol, dtype)
        want = 2.0 * ive(np.arange(len(q)), h)
        want[0] /= 2.0
        np.testing.assert_array_equal(q, want)
        # every dropped coefficient, far past any that matters, small end first
        tail = np.cumsum(2.0 * ive(np.arange(len(q) + 2000, len(q) - 2, -1), h))[-2:]
        assert tail[0] <= target
        # only the floor of two keeps a term the target could do without: at
        # h = 1e-9, q_1 = 1e-9 is above the float64 target, below float32's
        assert tail[1] > target or len(q) == 2
        assert len(q) == 2 if h < 1e-6 else len(q) > 2

    @pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-13), (np.float32, 1e-6)])
    def test_two_coefficient_series_matches_expm_multiply(self, dtype, rtol):
        # a spectrum in [0.3, 0.3 + 2e-9]: one coefficient would add a
        # spurious T_1 term of the size of z
        rng = np.random.default_rng(31)
        a = 0.3 * np.eye(12) + random_symmetric(rng, 12, norm=1e-9)
        op = SymOperator.from_dense(a)
        iv = SpectralInterval(0.3 - 1e-9, 0.3 + 1e-9)
        assert len(operators._chebyshev_degree(0.5 * iv.width, 1e-10, dtype)) == 2
        z = rng.standard_normal((12, 3))
        y = expm_action(op, iv, z.astype(dtype))
        ref = expm_multiply(sp.csr_array(a), z)
        assert np.linalg.norm(y - ref) <= rtol * np.linalg.norm(ref)


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
@pytest.mark.parametrize("base_kind", ["dense", "sparse"])
def test_float32_expm_action_is_float64_to_float32_accuracy(base_kind, family):
    """A float32 block runs the recurrence in float32, truncated at float32
    roundoff, and comes back in float32 within 1e-5 of the float64 result
    (measured at most 6e-7 on the pinned workloads)."""
    rng = np.random.default_rng(29)
    op, _ = shifted_case(base_kind, family, rng)
    z = rng.choice([-1.0, 1.0], size=(NB * K, 6))
    iv = spectral_bounds(op, seed=4)
    for kw in (dict(), dict(scale=-1.5, shift=1.5 * iv.lo)):
        want = expm_action(op, iv, z, tol=1e-12, **kw)
        got = expm_action(op, iv, z.astype(np.float32), tol=1e-12, **kw)
        assert got.dtype == np.float32
        assert np.linalg.norm(got - want) <= 1e-5 * np.linalg.norm(want)
    # the float32 series stops at float32 roundoff, not at tol * 1e-3
    assert len(operators._chebyshev_degree(2.0, 1e-12, np.float32)) < len(
        operators._chebyshev_degree(2.0, 1e-12))
    flat = expm_action(op, SpectralInterval(0.6, 0.6), z.astype(np.float32))
    assert flat.dtype == np.float32
    np.testing.assert_array_equal(flat, (np.exp(0.6) * z).astype(np.float32))


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


def lanes(monkeypatch, count):
    """Run expm_action over count lanes on a pool of its own; returns the pool."""
    pool = ThreadPoolExecutor(max_workers=count)
    monkeypatch.setattr(operators, "_LANES", count)
    monkeypatch.setattr(operators, "_POOL", pool)
    return pool


class TestColumnBlocks:
    @pytest.mark.parametrize("family", ["maxcut", "strong", "weak"])
    def test_block_split_changes_no_bits(self, family):
        rng = np.random.default_rng(26)
        op = large_shifted_operator(family, rng)
        s = 300
        signs = rng.choice([-1.0, 1.0], size=(op.n, s))
        iv = spectral_bounds(op, seed=5)
        kw = dict(tol=1e-12, scale=-1.5, shift=1.5 * iv.lo)
        want = expm_multiply(-1.5 * (op.to_sparse() - iv.lo * sp.eye_array(op.n)), signs)
        # each precision is bit-stable under the split on its own
        for dtype, accuracy in ((np.float64, 1e-10), (np.float32, 1e-5)):
            z = signs.astype(dtype)
            assert len(operators._column_blocks(op.n, s, z.itemsize)) > 1, "S must span blocks"
            y = expm_action(op, iv, z, **kw)
            assert y.dtype == z.dtype
            for j in range(s):
                np.testing.assert_array_equal(y[:, j],
                                              expm_action(op, iv, z[:, j:j + 1], **kw)[:, 0])
            assert np.linalg.norm(y - want) <= accuracy * np.linalg.norm(want)

    @pytest.mark.parametrize("n, s, itemsize, widths", [
        (4000, 208, 4, [52] * 4),       # maxcut-n4000 in float32
        (4000, 208, 8, [26] * 8),       # 7 blocks of up to 33 float64 columns, rounded up to 8
        (1000, 553, 4, [138, 138, 138, 139]),
        (1000, 262, 4, [262]),          # 2**18 float32 entries fit one block
        (1000, 262, 8, [131, 131]),
        (10**6, 3, 8, [1, 1, 1]),       # never more blocks than columns
    ])
    def test_blocks_are_sized_in_bytes_and_balanced(self, monkeypatch, n, s, itemsize, widths):
        monkeypatch.setattr(operators, "_LANES", 2)
        blocks = operators._column_blocks(n, s, itemsize)
        assert [b.stop - b.start for b in blocks] == widths
        assert blocks[0].start == 0 and all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert blocks[-1].stop == s

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("lane_count", [1, 3])
    @pytest.mark.parametrize("extra", ["width+1", "lanes*width+1"])
    def test_balanced_split_computes_every_column_once(self, monkeypatch, dtype, lane_count,
                                                       extra):
        rng = np.random.default_rng(30)
        op = large_shifted_operator("strong", rng)
        iv = spectral_bounds(op, seed=8)
        # 1 MiB per array, scaled down to 16 float64 or 32 float32 columns
        monkeypatch.setattr(operators, "_BLOCK_BYTES", 16 * 8 * op.n)
        width = 16 * 8 // np.dtype(dtype).itemsize
        s = width + 1 if extra == "width+1" else lane_count * width + 1
        # distinct columns, so each block handed to the recurrence is traceable
        z = rng.standard_normal((op.n, s)).astype(dtype)
        pool = lanes(monkeypatch, lane_count)
        blocks = operators._column_blocks(op.n, s, z.itemsize)
        widths = [b.stop - b.start for b in blocks]
        assert len(blocks) % lane_count == 0 and max(widths) - min(widths) <= 1
        assert max(widths) <= width
        seen, lock, clenshaw = [], threading.Lock(), operators._clenshaw

        def spy(double, q, zb, b1, b2):
            with lock:
                seen.append(zb.copy())
            return clenshaw(double, q, zb, b1, b2)

        monkeypatch.setattr(operators, "_clenshaw", spy)
        try:
            y = expm_action(op, iv, z)
        finally:
            pool.shutdown()
        # the blocks handed to the recurrence tile z's columns exactly once
        assert sorted(b.shape[1] for b in seen) == sorted(widths)
        got = np.concatenate([b.T for b in seen])
        np.testing.assert_array_equal(got[np.argsort(got[:, 0])], z.T[np.argsort(z[0])])
        for j in range(s):
            np.testing.assert_array_equal(y[:, j], expm_action(op, iv, z[:, j:j + 1])[:, 0])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("s", [5, 300])
    def test_strided_input_gives_the_contiguous_bits(self, dtype, s):
        rng = np.random.default_rng(31)
        op = large_shifted_operator("weak", rng)
        iv = spectral_bounds(op, seed=9)
        kw = dict(scale=-0.5, shift=0.5 * iv.lo)
        transposed = rng.choice([-1.0, 1.0], size=(s, op.n)).astype(dtype).T
        every_other = rng.choice([-1.0, 1.0], size=(op.n, 2 * s)).astype(dtype)[:, ::2]
        for z in (transposed, every_other):
            assert not z.flags.c_contiguous
            want = expm_action(op, iv, np.ascontiguousarray(z), **kw)
            np.testing.assert_array_equal(expm_action(op, iv, z, **kw), want)

    @pytest.mark.parametrize("s", [5, 300])
    def test_work_keeps_the_buffers_for_the_next_call(self, s):
        rng = np.random.default_rng(32)
        op = large_shifted_operator("maxcut", rng)
        iv = spectral_bounds(op, seed=10)
        z = rng.choice([-1.0, 1.0], size=(s, op.n)).T
        work = {}
        first = [expm_action(op, iv, z.astype(dtype), work=work) for dtype in
                 (np.float32, np.float32, np.float64)]
        kept = dict(work)
        second = expm_action(op, iv, z, work=work)
        # same shape and dtype: the same result and block buffers, overwritten
        assert first[0] is first[1] and first[2] is second
        assert kept.keys() == work.keys() and all(kept[k] is work[k] for k in work)
        assert all(a.dtype == np.float64 for a in work.values())
        np.testing.assert_array_equal(second, expm_action(op, iv, z))
        np.testing.assert_array_equal(first[1], expm_action(op, iv, z.astype(np.float32)))

    def test_more_lanes_than_cores_compute_every_column_once(self, monkeypatch):
        rng = np.random.default_rng(28)
        op = large_shifted_operator("maxcut", rng)
        z = rng.choice([-1.0, 1.0], size=(op.n, 300))
        iv = spectral_bounds(op, seed=7)
        whole = expm_action(op, iv, z)
        # 48 blocks of 6 or 7 columns over 8 lanes, switching threads every microsecond
        monkeypatch.setattr(operators, "_BLOCK_BYTES", 7 * 8 * op.n)
        pool = lanes(monkeypatch, 8)
        assert len(operators._column_blocks(op.n, 300, 8)) == 48
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            np.testing.assert_array_equal(expm_action(op, iv, z), whole)
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown()

    def test_worker_error_reaches_the_caller_and_leaves_the_pool_working(self, monkeypatch):
        rng = np.random.default_rng(27)
        op = large_shifted_operator("maxcut", rng)
        z = rng.choice([-1.0, 1.0], size=(op.n, 300))
        iv = spectral_bounds(op, seed=6)
        healthy = {dtype: expm_action(op, iv, z.astype(dtype))
                   for dtype in (np.float64, np.float32)}
        apply, block_calls, lock = SymOperator.apply, itertools.count(1), threading.Lock()

        def faulty(self, v, into=None):
            if np.ndim(v) == 2:
                with lock:
                    call = next(block_calls)
                if call == 2:
                    raise ArithmeticError("injected fault")
            return apply(self, v, into)

        monkeypatch.setattr(SymOperator, "apply", faulty)
        for dtype in healthy:
            block_calls = itertools.count(1)
            with pytest.raises(ArithmeticError, match="injected fault"):
                expm_action(op, iv, z.astype(dtype))
        block_calls = itertools.count(1)
        problem = gen_er_maxcut(1030, seed=4)
        with pytest.raises(RuntimeError, match="solver failed at iteration 0: injected"):
            solve(problem, SolverConfig(iters=2, samples=300, seed=1))
        monkeypatch.setattr(SymOperator, "apply", apply)
        for dtype, want in healthy.items():
            np.testing.assert_array_equal(expm_action(op, iv, z.astype(dtype)), want)


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
        # the exact state is a ProbeBatch of mass 1 whose log_norm is log Z
        assert isinstance(g, ProbeBatch)
        assert abs(g.log_partition - g.log_norm) <= 1e-14
        assert g.images.shape == (9, 9)
        np.testing.assert_allclose(g.images @ g.images.T, g.density, atol=1e-15)
        assert abs(np.sum(g.images * g.images) - 1.0) <= 1e-14


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
