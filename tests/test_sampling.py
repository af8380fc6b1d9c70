import numpy as np
import pytest

from entdetect import (
    DensityMatrix,
    SampleSpec,
    evaluate_state,
    numerical_rank,
    purity,
    sample_reduced_state,
    sample_states,
    sample_tripartite_pure,
    sampling,
    spectrum,
)
from entdetect.analytics import average_purity, page_entropies
from entdetect.linalg import von_neumann_entropy
from conftest import (
    bell_state,
    haar_unitary,
    maximally_mixed,
    product_pure,
    reference_state,
    reference_stream,
    verdict,
)


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


STREAM_SEEDS = (0, 1, 42, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1)
STREAM_CELLS = ((2, 2, 1), (2, 5, 6), (6, 6, 36))
# Blocks covering trials 0, 1, 255, 256 (all hashed) and 2**32 - 1 (hashed),
# 2**32, 2**32 + 1 (two-word keys, seeded by numpy) in one block spanning 2**32.
STREAM_BLOCKS = ((0, 257), (2 ** 32 - 2, 2 ** 32 + 2))


class TestStreams:
    """The block seeder reproduces default_rng(SeedSequence(seed,
    spawn_key=(d1, d2, k, trial, 0))) exactly."""

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    @pytest.mark.parametrize("cell", STREAM_CELLS)
    @pytest.mark.parametrize("block", STREAM_BLOCKS)
    def test_states_and_draws_equal_seedsequence(self, seed, cell, block):
        start, stop = block
        states = sampling._stream_states(*cell, seed, start, stop)
        assert len(states) == stop - start
        bitgen = np.random.PCG64(0)
        for trial, state in zip(range(start, stop), states):
            spec = SampleSpec(*cell, seed, trial)
            ref = reference_stream(spec)
            assert state == ref.bit_generator.state
            bitgen.state = state
            assert np.array_equal(
                np.random.Generator(bitgen).standard_normal(64), ref.standard_normal(64)
            )

    @pytest.mark.filterwarnings("error")
    def test_numpy_integer_arguments(self):
        seed = 2 ** 64 - 1
        assert sampling._stream_states(
            np.int64(2), np.int64(5), np.int64(6), np.uint64(seed), 0, 4
        ) == sampling._stream_states(2, 5, 6, seed, 0, 4)

    def test_block_spanning_two_word_trials_matches_reference(self):
        start, stop = STREAM_BLOCKS[1]
        for trial, rho in zip(range(start, stop), sample_states(2, 5, 6, 42, start, stop)):
            assert np.array_equal(rho.mat, reference_state(SampleSpec(2, 5, 6, 42, trial)).mat)

    @pytest.mark.parametrize(
        "constant", ["_INIT_A", "_MULT_A", "_MIX_MULT_L", "_INIT_B", "_MULT_B", "_PCG_MULT"]
    )
    def test_guard_rejects_a_changed_hash(self, monkeypatch, constant):
        monkeypatch.setattr(sampling, constant, getattr(sampling, constant) ^ 1)
        states = sample_states(2, 5, 6, 42, 0, 256)
        with pytest.raises(RuntimeError, match="disagrees"):
            next(states)

    def test_rejects_bad_cell(self):
        with pytest.raises(ValueError):
            next(sample_states(2, 5, 11, 42, 0, 3))


class TestRedraw:
    """A zero first draw is replaced by the trial's (d1, d2, k, t, 1)
    sub-stream; a second zero is an error."""

    CELL, SEED, TRIAL = (2, 5, 6), 42, 300

    def _spec(self, trial=TRIAL):
        return SampleSpec(*self.CELL, self.SEED, trial)

    def _vector(self, redraw):
        n = int(np.prod(self.CELL))
        rng = reference_stream(self._spec(), redraw)
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)

    def _zero_norm_of(self, monkeypatch, *redraws):
        """Make the norm the sampler takes read 0 for the trial's draws from
        the listed sub-streams, and be exact elsewhere."""
        zeros = [self._vector(r) for r in redraws]
        norm = np.linalg.norm
        monkeypatch.setattr(
            np.linalg, "norm",
            lambda v: 0.0 if any(np.array_equal(v, z) for z in zeros) else norm(v),
        )
        return norm

    def test_block_redraws_only_that_trial(self, monkeypatch):
        norm = self._zero_norm_of(monkeypatch, 0)
        v = self._vector(1)
        a = (v / norm(v)).reshape(10, 6)
        redrawn = DensityMatrix(a @ a.conj().T, 2, 5, check=False)
        start, stop = self.TRIAL - 2, self.TRIAL + 3
        states = sample_states(*self.CELL, self.SEED, start, stop)
        for trial, rho in zip(range(start, stop), states):
            ref = redrawn if trial == self.TRIAL else reference_state(self._spec(trial))
            assert np.array_equal(rho.mat, ref.mat)

    def test_single_trial_redraws(self, monkeypatch):
        norm = self._zero_norm_of(monkeypatch, 0)
        v = self._vector(1)
        assert np.array_equal(sample_tripartite_pure(self._spec()), v / norm(v))

    def test_second_zero_raises(self, monkeypatch):
        self._zero_norm_of(monkeypatch, 0, 1)
        with pytest.raises(RuntimeError, match="twice"):
            list(sample_states(*self.CELL, self.SEED, self.TRIAL - 2, self.TRIAL + 3))
        with pytest.raises(RuntimeError, match="twice"):
            sample_tripartite_pure(self._spec())


@pytest.mark.parametrize("cell", [(2, 5, 6), (3, 5, 2), (3, 4, 12), (6, 6, 2)])
def test_sample_states_equal_reference_sampler(cell):
    """Bit-identical to the per-trial SeedSequence sampler: every trial of
    two stream blocks, a block starting mid-way, and the one-trial calls."""
    specs = [SampleSpec(*cell, 42, t) for t in range(512)]
    for spec, rho in zip(specs, sample_states(*cell, 42, 0, 512)):
        assert np.array_equal(rho.mat, reference_state(spec).mat)
    for spec, rho in zip(specs[100:140], sample_states(*cell, 42, 100, 140)):
        assert np.array_equal(rho.mat, reference_state(spec).mat)
    for t in (0, 255, 256, 511):
        assert np.array_equal(sample_reduced_state(specs[t]).mat, reference_state(specs[t]).mat)
