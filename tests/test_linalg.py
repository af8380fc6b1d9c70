import numpy as np
import pytest

from entdetect import (
    DensityMatrix,
    evaluate_state,
    partial_trace,
    partial_transpose,
    purity,
    realign,
    sample_chunks,
    sample_tripartite_pure,
    spectrum,
    trace_norm,
    von_neumann_entropy,
)
from entdetect.linalg import ENTROPY_FLOOR
from conftest import (
    bell_state,
    maximally_mixed,
    product_mixed,
    product_pure,
    random_state,
    reference_entropy,
    reference_marginal,
    states_of,
)


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.1
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(m, 2, 2)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(4) / 2, 2, 2)

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([0.6, 0.5, 0.0, -0.1]).astype(complex)
        with pytest.raises(ValueError, match="PSD"):
            DensityMatrix(m, 2, 2)

    def test_rejects_nan(self):
        m = np.eye(4, dtype=complex) / 4
        m[2, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            DensityMatrix(m, 2, 2)

    @pytest.mark.parametrize(
        "index, value",
        [
            ((0, 1), complex(0.0, np.nan)),
            ((1, 1), complex(0.25, np.inf)),
            ((2, 3), complex(-np.inf, 0.0)),
        ],
    )
    def test_rejects_non_finite_entry(self, index, value):
        # NaN or inf in an imaginary part only, and -inf in a real
        # off-diagonal entry, are caught by the one finiteness check.
        m = np.eye(4, dtype=complex) / 4
        m[index] = value
        with pytest.raises(ValueError, match="finite"):
            DensityMatrix(m, 2, 2)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="6x6"):
            DensityMatrix(np.eye(4) / 4, 2, 3)

    def test_symmetrized_once_at_construction(self):
        [mat] = random_state(2, 3, 4, seed=5).mat
        assert np.abs(mat - mat.conj().T).max() == 0

    def test_one_matrix_is_a_stack_of_one(self):
        rho = DensityMatrix(np.eye(6) / 6, 2, 3)
        assert len(rho) == 1 and rho.mat.shape == (1, 6, 6)
        assert rho.gram is rho.mat
        [a] = _factors(1, 2, 3, 4)
        m = a @ a.conj().T
        before = m.tobytes()
        assert np.array_equal(DensityMatrix(m, 2, 3).mat, DensityMatrix.stack(a[None], 2, 3).mat)
        # symmetrized in a copy: the caller's matrix keeps its bits
        assert m.tobytes() == before

    @pytest.mark.parametrize("build", [DensityMatrix, DensityMatrix.stack])
    def test_rejects_an_empty_stack(self, build):
        with pytest.raises(ValueError) as exc:
            build(np.zeros((0, 4, 4), dtype=complex), 2, 2)
        assert str(exc.value) == "expected at least one matrix, got an empty stack"


def _factors(b, d1, d2, k, seed=0):
    """``b`` complex Gaussian ``(d1*d2, k)`` factors of unit Frobenius
    norm, so each ``A A^dag`` has unit trace."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((b, d1 * d2, k)) + 1j * rng.standard_normal((b, d1 * d2, k))
    return a / np.linalg.norm(a, axis=(1, 2))[:, None, None]


def _wishart_stack(b, d1, d2, k, seed=0):
    """``b`` unit-trace ``A A^dag`` products, Hermitian only to rounding."""
    a = _factors(b, d1, d2, k, seed)
    return a @ a.conj().transpose(0, 2, 1)


def _non_finite(m):
    m[1, 2] = complex(0.0, np.nan)
    return m


def _non_hermitian(m):
    m[0, 1] += 1e-3
    return m


def _off_trace(m):
    return m * (1 + 1e-6)


class TestStack:
    """A stack of matrices is checked as each of its matrices alone, in
    one pass; DensityMatrix.stack takes ``(B, n, k)`` factors and makes
    the same checks, bar positivity, on their ``A A^dag`` products."""

    D1, D2 = 2, 3

    def test_equals_one_matrix_at_a_time(self):
        a = _factors(7, self.D1, self.D2, 4)
        states = DensityMatrix.stack(a, self.D1, self.D2)
        assert len(states) == 7 and (states.d1, states.d2) == (self.D1, self.D2)
        assert states.gram.shape == (7, 4, 4)
        for f, mat, gram in zip(a, states.mat, states.gram):
            assert np.array_equal(mat, DensityMatrix(f @ f.conj().T, self.D1, self.D2).mat[0])
            assert np.array_equal(gram, f.conj().T @ f)

    def test_full_rank_factors_keep_rho_as_the_stand_in(self):
        states = DensityMatrix.stack(_factors(3, self.D1, self.D2, 6), self.D1, self.D2)
        assert states.gram is states.mat

    @pytest.mark.parametrize("spoil", [_non_finite, _non_hermitian, _off_trace])
    @pytest.mark.parametrize("where", [0, -1])
    def test_one_bad_matrix_raises_its_own_error(self, spoil, where):
        # 12 states at 2x18 are 4 slabs of 3 matrices; where=-1 is in the
        # last one. The input keeps its bits, as it is checked in a copy.
        for b, d1, d2 in ((5, self.D1, self.D2), (12, 2, 18)):
            mats = _wishart_stack(b, d1, d2, 3)
            mats[where] = spoil(mats[where].copy())
            before = mats.tobytes()
            with pytest.raises(ValueError) as alone:
                DensityMatrix(mats[where], d1, d2)
            with pytest.raises(ValueError) as stacked:
                DensityMatrix(mats, d1, d2)
            assert str(stacked.value) == str(alone.value)
            assert "\n" not in str(stacked.value)
            assert mats.tobytes() == before

    @pytest.mark.parametrize("spoil", [_non_finite, _off_trace])
    @pytest.mark.parametrize("where", [0, -1])
    def test_one_bad_factor_raises_its_products_error(self, spoil, where):
        # A product A A^dag is Hermitian to rounding, so a factor can spoil
        # only its finiteness or its trace. At 2x8 k=3 (d1*k < d2) the
        # checks run on the core's products, which keep A's norm. 12
        # states at 6x6 k=4 are 4 slabs of 3 products.
        for b, d1, d2, k in ((5, self.D1, self.D2, 3), (5, 2, 8, 3), (12, 6, 6, 4)):
            a = _factors(b, d1, d2, k)
            assert (DensityMatrix.stack(a, d1, d2).core is None) == (d1 * k >= d2)
            a[where] = spoil(a[where].copy())
            with pytest.raises(ValueError) as alone:
                DensityMatrix(a[where] @ a[where].conj().T, d1, d2)
            with pytest.raises(ValueError) as stacked:
                DensityMatrix.stack(a, d1, d2)
            assert str(stacked.value) == str(alone.value)
            assert "\n" not in str(stacked.value)

    def test_core_stack_forms_mat_on_first_read(self):
        # The kernel reads only gram and core of a stack with a core; mat
        # is A A^dag, checked and symmetrized, with the bits it has on a
        # stack without one.
        a = _factors(6, 2, 5, 2)
        states = DensityMatrix.stack(a, 2, 5)
        evaluate_state(states)
        assert states._mat is None and len(states) == 6
        for f, mat in zip(a, states.mat):
            assert np.array_equal(mat, DensityMatrix(f @ f.conj().T, 2, 5).mat[0])
        assert states.mat is states.mat and states.gram.shape == (6, 2, 2)

    @pytest.mark.parametrize("shape, d1, d2, message", [
        ((3, 12, 2), 2, 5, "10x10"),
        ((3, 5, 2), 1, 5, "at least 2"),
        ((3, 10, 0), 2, 5, "unit trace"),
    ])
    def test_malformed_factors_raise_as_without_a_core(self, shape, d1, d2, message):
        with pytest.raises(ValueError, match=message):
            DensityMatrix.stack(np.ones(shape) / np.sqrt(np.prod(shape[1:])), d1, d2)

    def test_hermiticity_is_relative_to_each_matrix(self):
        # An asymmetry of 5e-13 is within HERMITICITY_RTOL of a pure
        # state's largest entry (1) but not of I/6's (1/6), so I/6 fails
        # even beside the pure state. The pure state is symmetrized in a
        # copy, so the caller's asymmetric matrix keeps its bits.
        pure = np.diag([1.0, 0, 0, 0, 0, 0]).astype(complex)
        mixed = np.eye(6, dtype=complex) / 6
        pure[0, 1] = mixed[0, 1] = 5e-13
        before = pure.tobytes()
        rho = DensityMatrix(pure[None], 2, 3)
        assert rho.mat[0, 0, 1] == rho.mat[0, 1, 0] == 2.5e-13
        assert pure.tobytes() == before
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.stack([pure, mixed]), 2, 3)

    @pytest.mark.parametrize("early, late, message", [
        (_off_trace, _non_hermitian, "Hermitian"),
        (_non_hermitian, _non_finite, "finite"),
        (_off_trace, _non_finite, "finite"),
    ])
    def test_checks_keep_their_order_across_slabs(self, early, late, message):
        # 12 states at 6x6 are 4 slabs of 3 matrices: a check that fails
        # in the last slab raises before a later check that fails in the
        # first, as on a stack of one slab.
        mats = _wishart_stack(12, 6, 6, 4)
        mats[1] = early(mats[1].copy())
        mats[10] = late(mats[10].copy())
        with pytest.raises(ValueError, match=message):
            DensityMatrix(mats, 6, 6)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="6x6"):
            DensityMatrix.stack(_factors(2, 2, 2, 2), 2, 3)


class TestStackedHelpers:
    """Each helper on a (B, n, n) stack is B calls on stacks of one, bit
    for bit."""

    @pytest.mark.parametrize("cell", [(2, 5, 6), (3, 4, 12), (6, 6, 2)])
    def test_helpers_equal_one_matrix_calls(self, cell):
        d1, d2, k = cell
        stack = DensityMatrix.stack(
            np.stack([sample_tripartite_pure(*cell, 9, t).reshape(d1 * d2, k) for t in range(5)]),
            d1, d2)
        per_state = {
            "partial_transpose 1": lambda rho: partial_transpose(rho, 1),
            "partial_transpose 2": lambda rho: partial_transpose(rho, 2),
            "partial_trace 1": lambda rho: partial_trace(rho, 1),
            "partial_trace 2": lambda rho: partial_trace(rho, 2),
            "realign": realign,
            "trace_norm": lambda rho: trace_norm(realign(rho)),
            "spectrum": lambda rho: spectrum(rho.mat),
            "stand-in spectrum": lambda rho: spectrum(rho.gram, d1 * d2),
            "entropy": lambda rho: von_neumann_entropy(spectrum(rho.gram, d1 * d2)),
        }
        for name, fn in per_state.items():
            stacked = fn(stack)
            assert len(stacked) == len(stack), name
            for one, got in zip(states_of(stack), stacked):
                want = np.asarray(fn(one))
                assert len(want) == 1, name
                got, want = np.asarray(got), want[0]
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), name

    def test_stack_len_and_states(self):
        mats = _wishart_stack(4, 2, 3, 2)
        stack = DensityMatrix(mats, 2, 3)
        assert len(stack) == 4 and stack.mat.shape == (4, 6, 6)
        for m, one in zip(mats, states_of(stack)):
            assert np.array_equal(one.mat, DensityMatrix(m, 2, 3).mat)
        one = DensityMatrix(mats[0], 2, 3)
        assert len(one) == 1 and one.mat.shape == (1, 6, 6)

    def test_constructor_checks_positivity_of_every_matrix(self):
        mats = _wishart_stack(3, 2, 2, 2)
        mats[1] = np.diag([0.6, 0.5, 0.0, -0.1])
        with pytest.raises(ValueError, match="PSD"):
            DensityMatrix(mats, 2, 2)

    def test_entropy_of_rows_equals_row_by_row(self):
        # Unsorted rows, rows with entries at or below the floor in any
        # position, and rows with no entry above it (entropy 0), short and
        # long (n >= 8, where numpy sums a row pairwise): no row's sum may
        # depend on the rows beside it.
        rng = np.random.default_rng(12)
        for n in (2, 5, 10, 36):
            rows = rng.random((300, n)) * rng.choice([1e-16, 1e-13, 1.0, 1.5], (300, n))
            rows[::7] *= 1e-15
            rows -= rng.choice([0.0, 1e-15], (300, n))
            rng.shuffle(rows, axis=1)
            stacked = von_neumann_entropy(rows)
            assert stacked.shape == (300,)
            one_by_one = np.array([von_neumann_entropy(row) for row in rows])
            assert stacked.tobytes() == one_by_one.tobytes(), n
            # and each equals the masked sum of its row alone
            reference = np.array([reference_entropy(row) for row in rows])
            assert stacked.tobytes() == reference.tobytes(), n
            assert (stacked[::7] == 0.0).all()
            assert len({int((row > ENTROPY_FLOOR).sum()) for row in rows}) > 2


class TestPartialTranspose:
    def test_product_projector_fixed(self):
        rho = DensityMatrix(np.diag([1.0, 0, 0, 0]).astype(complex), 2, 2)
        np.testing.assert_array_equal(partial_transpose(rho, 1), rho.mat)

    def test_diagonal_fixed(self):
        rho = DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex), 2, 2)
        np.testing.assert_array_equal(partial_transpose(rho, 1), rho.mat)
        np.testing.assert_array_equal(partial_transpose(rho, 2), rho.mat)

    def test_bell_spectrum(self):
        # Oracle: eigendecomposition of the hand-built PT matrix. The
        # coherences |00><11| and |11><00| move to |10><01| and |01><10|.
        pt_manual = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
        pt_manual[1, 2] = pt_manual[2, 1] = 0.5
        expected = np.sort(np.linalg.eigvalsh(pt_manual))[::-1]
        np.testing.assert_allclose(expected, [0.5, 0.5, 0.5, -0.5], atol=1e-12)
        got = np.linalg.eigvalsh(partial_transpose(bell_state(), 1)[0])[::-1]
        np.testing.assert_allclose(got, expected, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_involution_and_side_relation(self, seed):
        rho = random_state(3, 4, 6, seed=seed)
        [pt1] = partial_transpose(rho, 1)
        # transposing the same subsystem again reconstructs the input
        t = pt1.reshape(3, 4, 3, 4).transpose(2, 1, 0, 3).reshape(12, 12)
        assert np.abs(t - rho.mat[0]).max() <= 1e-14
        [pt2] = partial_transpose(rho, 2)
        np.testing.assert_allclose(pt2, pt1.T, atol=1e-14)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(pt1), np.linalg.eigvalsh(pt2), atol=1e-10
        )

    def test_bad_subsystem(self):
        with pytest.raises(ValueError):
            partial_transpose(bell_state(), 3)


class TestPartialTrace:
    def test_product_marginal_exact(self):
        rho = product_mixed(2, 3, seed=1)
        blocks = rho.mat.reshape(2, 3, 2, 3)
        rho_a = np.einsum("imjm->ij", blocks)
        rho_b = np.einsum("imin->mn", blocks)
        [got_a] = partial_trace(rho, 2)
        [got_b] = partial_trace(rho, 1)
        np.testing.assert_allclose(got_a, rho_a, atol=1e-14)
        np.testing.assert_allclose(got_b, rho_b, atol=1e-14)
        # product structure: rho = rho_a (x) rho_b recomposes exactly
        np.testing.assert_allclose(np.kron(got_a, got_b), rho.mat[0], atol=1e-12)

    def test_bell_marginals_maximally_mixed(self):
        for side in (1, 2):
            [m] = partial_trace(bell_state(), side)
            np.testing.assert_allclose(m, np.eye(2) / 2, atol=1e-14)

    def test_identity_factorizes(self):
        rho = maximally_mixed(3, 4)
        np.testing.assert_allclose(partial_trace(rho, 2)[0], np.eye(3) / 3, atol=1e-14)
        np.testing.assert_allclose(partial_trace(rho, 1)[0], np.eye(4) / 4, atol=1e-14)

    @pytest.mark.parametrize(
        "cell", [(2, 18, 4), (18, 2, 4), (3, 12, 5), (4, 9, 3), (9, 4, 3), (6, 6, 2)]
    )
    def test_matches_einsum_reference_bit_for_bit(self, cell):
        # Every witness starts from these marginals, so they must be the
        # einsum's to the last bit, on sides up to 18 wide.
        trial = 0
        for chunk in sample_chunks(*cell, 61, 0, 20):
            marginals = {side: partial_trace(chunk, side) for side in (1, 2)}
            for i, one in enumerate(states_of(chunk)):
                for side in (1, 2):
                    got = marginals[side][i]
                    want = reference_marginal(one, side)
                    assert got.shape == want.shape and got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes(), (side, trial)
                trial += 1
        assert trial == 20

    @pytest.mark.parametrize("seed", range(4))
    def test_marginal_spectrum_sums_to_one(self, seed):
        rho = random_state(3, 5, 7, seed=seed)
        for side in (1, 2):
            eigs = spectrum(partial_trace(rho, side))
            assert abs(eigs.sum() - 1.0) <= 1e-9


class TestRealign:
    def test_pure_product_trace_norm_one(self):
        rho = product_pure(2, 3, seed=2)
        # Oracle: realignment of a product state is the rank-1 outer
        # product vec(rho_A) vec(rho_B)^T, so its trace norm is
        # ||rho_A||_F ||rho_B||_F = 1 for pure factors.
        assert abs(trace_norm(realign(rho)) - 1.0) <= 1e-10

    def test_maximally_mixed_trace_norm(self):
        for d1, d2 in [(2, 2), (2, 5), (3, 4)]:
            rho = maximally_mixed(d1, d2)
            g = realign(rho)
            expected = np.linalg.svd(g, compute_uv=False).sum()
            assert abs(expected - 1 / np.sqrt(d1 * d2)) <= 1e-12
            assert abs(trace_norm(g) - 1 / np.sqrt(d1 * d2)) <= 1e-12

    def test_bell_trace_norm_two(self):
        assert abs(trace_norm(realign(bell_state())) - 2.0) <= 1e-12

    def test_entry_map(self):
        [mat] = random_state(2, 3, 3, seed=3).mat
        [g] = realign(random_state(2, 3, 3, seed=3))
        for i in range(2):
            for j in range(2):
                for mu in range(3):
                    for nu in range(3):
                        assert g[i * 2 + j, mu * 3 + nu] == mat[i * 3 + mu, j * 3 + nu]

    @pytest.mark.parametrize("seed", range(4))
    def test_frobenius_preserved(self, seed):
        rho = random_state(3, 4, 5, seed=seed)
        assert abs(np.linalg.norm(realign(rho)) - np.linalg.norm(rho.mat)) <= 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_trace_norm_purity_bound(self, seed):
        # per-sample bound: ||R(rho)||_1 <= d1 sqrt(Tr rho^2) for d1 <= d2
        rho = random_state(2, 5, 6, seed=seed)
        assert trace_norm(realign(rho)) <= 2 * np.sqrt(purity(rho)) + 1e-9


class TestTraceNorm:
    def test_identity(self):
        assert trace_norm(np.eye(7)) == pytest.approx(7.0, abs=1e-12)

    def test_hermitian_abs_eigen_sum(self):
        assert trace_norm(np.diag([1.0, -1.0])) == pytest.approx(2.0, abs=1e-12)

    def test_random_matches_independent_path(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        # Oracle: |eigenvalue| sum of sqrt(A^dag A)
        expected = np.sqrt(np.linalg.eigvalsh(m.conj().T @ m)).sum()
        assert abs(trace_norm(m) - expected) <= 1e-10


class TestEntropyAndPurity:
    def test_pure_state_zero_entropy(self):
        assert von_neumann_entropy([1.0, 0.0, 0.0]) == 0.0

    def test_maximally_mixed_log_d(self):
        for d in (2, 3, 7):
            assert von_neumann_entropy(np.full(d, 1 / d)) == pytest.approx(np.log(d))

    def test_tiny_negatives_clipped(self):
        assert von_neumann_entropy([1.0 + 5e-11, -5e-11]) == 0.0

    def test_equals_clip_then_filter_reference(self):
        # Reference: clip to [0, 1], then set what is at or below the
        # floor to 1, whose term 1 log 1 is an exact zero. Masking first
        # and clipping to 1 after gives the same row, so the sums agree
        # exactly.
        rng = np.random.default_rng(11)
        for n in (2, 5, 10, 36):
            for _ in range(200):
                e = rng.random(n) * rng.choice([1e-16, 1e-13, 1.0, 1.5], n)
                e -= rng.choice([0.0, 1e-15], n)
                p = np.clip(e, 0.0, 1.0)
                p[p <= ENTROPY_FLOOR] = 1.0
                assert von_neumann_entropy(e) == max(float(-(p * np.log(p)).sum()), 0.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_additivity_on_products(self, seed):
        rho = product_mixed(2, 3, seed=seed)
        s_ab = von_neumann_entropy(spectrum(rho.mat))
        s_a = von_neumann_entropy(spectrum(partial_trace(rho, 2)))
        s_b = von_neumann_entropy(spectrum(partial_trace(rho, 1)))
        assert abs(s_ab - s_a - s_b) <= 1e-9

    def test_purity_examples(self):
        assert purity(product_pure(2, 2, seed=4))[0] == pytest.approx(1.0, abs=1e-12)
        assert purity(maximally_mixed(2, 2))[0] == pytest.approx(0.25, abs=1e-14)
        rho = DensityMatrix(np.diag([0.5, 0.5, 0, 0]).astype(complex), 2, 2)
        assert purity(rho)[0] == pytest.approx(0.5, abs=1e-14)

    def test_purity_of_a_stack_is_per_state(self):
        chunk = next(sample_chunks(2, 5, 6, 42, 0, 40))
        assert len(chunk) == 40
        stacked = purity(chunk)
        assert stacked.shape == (40,) and stacked.dtype == np.float64
        alone = [purity(one) for one in states_of(chunk)]
        assert all(p.shape == (1,) and p.dtype == np.float64 for p in alone)
        assert stacked.tobytes() == np.concatenate(alone).tobytes()

    def test_purity_equals_eigenvalue_square_sum(self):
        rho = random_state(3, 3, 4, seed=6)
        assert purity(rho)[0] == pytest.approx(float((spectrum(rho.mat[0]) ** 2).sum()), abs=1e-12)
