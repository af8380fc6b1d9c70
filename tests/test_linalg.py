import numpy as np
import pytest

from entdetect import (
    DensityMatrix,
    partial_trace,
    partial_transpose,
    purity,
    realign,
    spectrum,
    trace_norm,
    von_neumann_entropy,
)
from conftest import (
    bell_state,
    maximally_mixed,
    product_mixed,
    product_pure,
    random_state,
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

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="6x6"):
            DensityMatrix(np.eye(4) / 4, 2, 3)

    def test_symmetrized_once_at_construction(self):
        rho = random_state(2, 3, 4, seed=5)
        assert np.abs(rho.mat - rho.mat.conj().T).max() == 0


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
        got = np.linalg.eigvalsh(partial_transpose(bell_state(), 1))[::-1]
        np.testing.assert_allclose(got, expected, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_involution_and_side_relation(self, seed):
        rho = random_state(3, 4, 6, seed=seed)
        pt1 = partial_transpose(rho, 1)
        # transposing the same subsystem again reconstructs the input
        t = pt1.reshape(3, 4, 3, 4).transpose(2, 1, 0, 3).reshape(12, 12)
        assert np.abs(t - rho.mat).max() <= 1e-14
        pt2 = partial_transpose(rho, 2)
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
        got_a = partial_trace(rho, 2).mat
        got_b = partial_trace(rho, 1).mat
        np.testing.assert_allclose(got_a, rho_a, atol=1e-14)
        np.testing.assert_allclose(got_b, rho_b, atol=1e-14)
        # product structure: rho = rho_a (x) rho_b recomposes exactly
        np.testing.assert_allclose(np.kron(got_a, got_b), rho.mat, atol=1e-12)

    def test_bell_marginals_maximally_mixed(self):
        for side in (1, 2):
            m = partial_trace(bell_state(), side).mat
            np.testing.assert_allclose(m, np.eye(2) / 2, atol=1e-14)

    def test_identity_factorizes(self):
        rho = maximally_mixed(3, 4)
        np.testing.assert_allclose(partial_trace(rho, 2).mat, np.eye(3) / 3, atol=1e-14)
        np.testing.assert_allclose(partial_trace(rho, 1).mat, np.eye(4) / 4, atol=1e-14)

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
        rho = random_state(2, 3, 3, seed=3)
        g = realign(rho)
        for i in range(2):
            for j in range(2):
                for mu in range(3):
                    for nu in range(3):
                        assert g[i * 2 + j, mu * 3 + nu] == rho.mat[i * 3 + mu, j * 3 + nu]

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

    def test_half_half_base_two(self):
        assert von_neumann_entropy([0.5, 0.5], base=2) == pytest.approx(1.0)

    def test_tiny_negatives_clipped(self):
        assert von_neumann_entropy([1.0 + 5e-11, -5e-11]) == 0.0

    def test_bad_base(self):
        with pytest.raises(ValueError):
            von_neumann_entropy([1.0], base=10)

    @pytest.mark.parametrize("seed", range(3))
    def test_additivity_on_products(self, seed):
        rho = product_mixed(2, 3, seed=seed)
        s_ab = von_neumann_entropy(spectrum(rho))
        s_a = von_neumann_entropy(spectrum(partial_trace(rho, 2)))
        s_b = von_neumann_entropy(spectrum(partial_trace(rho, 1)))
        assert abs(s_ab - s_a - s_b) <= 1e-9

    def test_purity_examples(self):
        assert purity(product_pure(2, 2, seed=4)) == pytest.approx(1.0, abs=1e-12)
        assert purity(maximally_mixed(2, 2)) == pytest.approx(0.25, abs=1e-14)
        rho = DensityMatrix(np.diag([0.5, 0.5, 0, 0]).astype(complex), 2, 2)
        assert purity(rho) == pytest.approx(0.5, abs=1e-14)

    def test_purity_equals_eigenvalue_square_sum(self):
        rho = random_state(3, 3, 4, seed=6)
        assert purity(rho) == pytest.approx(float((spectrum(rho) ** 2).sum()), abs=1e-12)
