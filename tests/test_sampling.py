import numpy as np
import pytest

from entdetect import (
    DensityMatrix,
    SampleSpec,
    evaluate_state,
    numerical_rank,
    purity,
    sample_reduced_state,
    sample_tripartite_pure,
    spectrum,
)
from entdetect.analytics import average_purity, page_entropies
from entdetect.linalg import von_neumann_entropy
from conftest import bell_state, haar_unitary, maximally_mixed, product_pure, verdict


class TestSampleSpec:
    def test_rejects_small_dims(self):
        with pytest.raises(ValueError):
            SampleSpec(1, 4, 2, 0)
        with pytest.raises(ValueError):
            SampleSpec(4, 1, 2, 0)

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            SampleSpec(2, 3, 0, 0)
        with pytest.raises(ValueError):
            SampleSpec(2, 3, 7, 0)

    def test_rejects_negative_trial(self):
        with pytest.raises(ValueError):
            SampleSpec(2, 3, 2, 0, trial_index=-1)


class TestPureSampling:
    def test_unit_norm(self):
        for k in (1, 3, 10):
            psi = sample_tripartite_pure(SampleSpec(2, 5, k, 7, 3))
            assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12

    def test_bitwise_determinism(self):
        spec = SampleSpec(3, 4, 5, 42, 0)
        a = sample_tripartite_pure(spec)
        b = sample_tripartite_pure(spec)
        assert np.array_equal(a, b)

    def test_distinct_trials_differ(self):
        a = sample_tripartite_pure(SampleSpec(2, 2, 2, 42, 0))
        b = sample_tripartite_pure(SampleSpec(2, 2, 2, 42, 1))
        assert not np.allclose(a, b)

    def test_haar_marginal_uniform(self):
        # Monte Carlo oracle: E|<e_i|psi>|^2 = 1/n; per-component variance
        # of a Dirichlet(1,...,1) marginal is (n-1)/(n^2 (n+1)).
        n_draws = 10_000
        d1, d2, k = 2, 2, 2
        n = d1 * d2 * k
        acc = np.zeros(n)
        for trial in range(n_draws):
            psi = sample_tripartite_pure(SampleSpec(d1, d2, k, 99, trial))
            acc += np.abs(psi) ** 2
        mean = acc / n_draws
        se = np.sqrt((n - 1) / (n ** 2 * (n + 1)) / n_draws)
        assert np.abs(mean - 1 / n).max() <= 3 * se


class TestReducedState:
    def test_rank_one_is_pure(self):
        rho = sample_reduced_state(SampleSpec(3, 4, 1, 5))
        assert abs(purity(rho) - 1.0) <= 1e-10

    @pytest.mark.parametrize("k", [2, 4, 10])
    def test_rank_equals_k(self, k):
        for trial in range(20):
            rho = sample_reduced_state(SampleSpec(2, 5, k, 11, trial))
            DensityMatrix(rho.mat, 2, 5)
            assert numerical_rank(rho) == k
            assert abs(spectrum(rho.mat).sum() - 1.0) <= 1e-9

    def test_mean_purity_matches_formula(self):
        n = 4000
        vals = [purity(sample_reduced_state(SampleSpec(2, 5, 4, 17, t))) for t in range(n)]
        assert np.mean(vals) == pytest.approx(average_purity(2, 5, 4), abs=0.01)
        assert average_purity(2, 5, 4) == pytest.approx(14 / 41)

    def test_mean_entropy_matches_page(self):
        n = 3000
        vals = [
            von_neumann_entropy(spectrum(sample_reduced_state(SampleSpec(2, 5, 10, 23, t)).mat))
            for t in range(n)
        ]
        _, _, s12 = page_entropies(2, 5, 10)
        assert s12 == pytest.approx(np.log(10) - 0.5)
        assert np.mean(vals) == pytest.approx(s12, abs=0.02)

    def test_local_unitary_invariance_of_ln_distribution(self):
        # Two-sample comparison: LN of raw samples vs rotated samples.
        n = 1500
        rng = np.random.default_rng(31)
        u = np.kron(haar_unitary(2, rng), haar_unitary(4, rng))
        raw, rotated = [], []
        for t in range(n):
            rho = sample_reduced_state(SampleSpec(2, 4, 3, 41, t))
            raw.append(evaluate_state(rho).ln())
            rot = type(rho)(u @ rho.mat @ u.conj().T, 2, 4, check=False)
            rho2 = sample_reduced_state(SampleSpec(2, 4, 3, 43, t))
            rotated.append(
                evaluate_state(type(rho2)(u @ rho2.mat @ u.conj().T, 2, 4, check=False)).ln()
            )
            assert abs(evaluate_state(rot).ln() - raw[-1]) <= 1e-9
        se = np.sqrt(np.var(raw) / n + np.var(rotated) / n)
        assert abs(np.mean(raw) - np.mean(rotated)) <= 3 * se


class TestIsNpt:
    def test_bell_is_npt(self):
        assert verdict(evaluate_state(bell_state()), "pt")[0]

    def test_product_is_ppt(self):
        assert not verdict(evaluate_state(product_pure(2, 3, seed=8)), "pt")[0]

    def test_maximally_mixed_is_ppt(self):
        assert not verdict(evaluate_state(maximally_mixed(2, 3)), "pt")[0]

    def test_npt_prevalence_at_low_rank(self):
        hits = sum(
            verdict(evaluate_state(sample_reduced_state(SampleSpec(3, 4, 6, 53, t))), "pt")[0]
            for t in range(200)
        )
        assert hits == 200
