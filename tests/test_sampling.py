import numpy as np
import pytest

from entdetect import (
    DensityMatrix,
    evaluate_state,
    purity,
    sample_reduced_state,
    sample_states,
    sample_tripartite_pure,
    sampling,
    spectrum,
)
from entdetect.analytics import (
    average_purity,
    entropy_rank_threshold,
    page_entropies,
    realignment_rank_bound,
)
from entdetect.harness import SweepConfig, run_cell
from entdetect.linalg import partial_trace, von_neumann_entropy
from entdetect.verify import numerical_rank
from conftest import (
    bell_state,
    haar_unitary,
    maximally_mixed,
    product_pure,
    reference_state,
    reference_stream,
    verdict,
)


class TestTrialIdentity:
    """A trial is named by (d1, d2, k, master_seed, trial_index); the sampler
    rejects a bad one with a one-line ValueError before drawing."""

    @staticmethod
    def _rejects(d1, d2, k, master_seed, start):
        with pytest.raises(ValueError) as exc:
            next(sample_states(d1, d2, k, master_seed, start, start + 3))
        assert "\n" not in str(exc.value)

    def test_rejects_small_dims(self):
        self._rejects(1, 4, 2, 0, 0)
        self._rejects(4, 1, 2, 0, 0)

    def test_rejects_bad_rank(self):
        self._rejects(2, 3, 0, 0, 0)
        self._rejects(2, 3, 7, 0, 0)

    def test_rejects_negative_trial(self):
        self._rejects(2, 3, 2, 0, -1)

    def test_rejects_seed_past_64_bits(self):
        self._rejects(2, 3, 2, 2 ** 64, 0)
        self._rejects(2, 3, 2, -1, 0)

    def test_rejects_trials_past_2_32(self):
        with pytest.raises(ValueError) as exc:
            next(sample_states(2, 3, 2, 0, 2 ** 32 - 1, 2 ** 32 + 1))
        assert "\n" not in str(exc.value)


@pytest.mark.parametrize("cell", [(1, 5, 2), (5, 1, 2), (2, 5, 0), (2, 5, 11)])
def test_bad_cell_gets_one_message_everywhere(cell):
    """Every entry point that takes a cell, or its dimensions, rejects a bad
    one with the same message."""
    d1, d2, k = cell
    calls = [
        lambda: next(sample_states(d1, d2, k, 0, 0, 1)),
        lambda: sample_reduced_state(d1, d2, k, 0),
        lambda: SweepConfig(cells=(cell,), samples_per_cell=1, master_seed=0),
        lambda: run_cell(d1, d2, k, 1, 0),
        lambda: page_entropies(d1, d2, k),
        lambda: average_purity(d1, d2, k),
    ]
    if min(d1, d2) < 2:  # these take the dimensions alone
        mixed = np.eye(d1 * d2) / (d1 * d2)
        calls += [
            lambda: entropy_rank_threshold(d1, d2),
            lambda: realignment_rank_bound(d1, d2),
            lambda: DensityMatrix(mixed, d1, d2),
            lambda: DensityMatrix.stack(mixed[None], d1, d2),
        ]
    messages = set()
    for call in calls:
        with pytest.raises(ValueError) as exc:
            call()
        messages.add(str(exc.value))
    assert len(messages) == 1, messages


class TestPureSampling:
    def test_unit_norm(self):
        for k in (1, 3, 10):
            psi = sample_tripartite_pure(2, 5, k, 7, 3)
            assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12

    def test_bitwise_determinism(self):
        a = sample_tripartite_pure(3, 4, 5, 42, 0)
        b = sample_tripartite_pure(3, 4, 5, 42, 0)
        assert np.array_equal(a, b)

    def test_distinct_trials_differ(self):
        a = sample_tripartite_pure(2, 2, 2, 42, 0)
        b = sample_tripartite_pure(2, 2, 2, 42, 1)
        assert not np.allclose(a, b)

    def test_haar_marginal_uniform(self):
        # Monte Carlo oracle: E|<e_i|psi>|^2 = 1/n; per-component variance
        # of a Dirichlet(1,...,1) marginal is (n-1)/(n^2 (n+1)).
        n_draws = 10_000
        d1, d2, k = 2, 2, 2
        n = d1 * d2 * k
        acc = np.zeros(n)
        for chunk in sampling._unit_vectors(d1, d2, k, 99, 0, n_draws):
            acc += (np.abs(chunk) ** 2).sum(axis=0)
        mean = acc / n_draws
        se = np.sqrt((n - 1) / (n ** 2 * (n + 1)) / n_draws)
        assert np.abs(mean - 1 / n).max() <= 3 * se


class TestReducedState:
    def test_rank_one_is_pure(self):
        rho = sample_reduced_state(3, 4, 1, 5)
        assert abs(purity(rho) - 1.0) <= 1e-10

    @pytest.mark.parametrize("k", [2, 4, 10])
    def test_rank_equals_k(self, k):
        for rho in sample_states(2, 5, k, 11, 0, 20):
            DensityMatrix(rho.mat, 2, 5)
            assert numerical_rank(rho) == k
            assert abs(spectrum(rho.mat).sum() - 1.0) <= 1e-9

    def test_mean_purity_matches_formula(self):
        n = 4000
        vals = [purity(rho) for rho in sample_states(2, 5, 4, 17, 0, n)]
        assert np.mean(vals) == pytest.approx(average_purity(2, 5, 4), abs=0.01)
        assert average_purity(2, 5, 4) == pytest.approx(14 / 41)

    def test_mean_entropy_matches_page(self):
        n = 3000
        vals = [
            von_neumann_entropy(spectrum(rho.mat)) for rho in sample_states(2, 5, 10, 23, 0, n)
        ]
        _, _, s12 = page_entropies(2, 5, 10)
        # Page's exact mean, H(100) - H(10) - 9/20
        assert s12 == pytest.approx(1.808409, abs=1e-6)
        assert np.mean(vals) == pytest.approx(s12, abs=0.02)

    @pytest.mark.parametrize("cell", [(2, 8, 1), (2, 5, 2)])
    def test_mean_marginal_entropies_match_page(self, cell):
        # S1, S2 and S12 each within 4 standard errors of their Monte Carlo
        # means; at k = 1 the marginals share one spectrum and S12 is 0.
        n = 2000
        vals = np.array([
            [von_neumann_entropy(spectrum(m))
             for m in (partial_trace(rho, 2), partial_trace(rho, 1), rho.mat)]
            for rho in sample_states(*cell, 61, 0, n)
        ])
        se = vals.std(axis=0) / np.sqrt(n)
        assert np.all(np.abs(vals.mean(axis=0) - page_entropies(*cell)) <= 4 * se + 1e-9)

    def test_local_unitary_invariance_of_ln_distribution(self):
        # Two-sample comparison: LN of raw samples vs rotated samples.
        n = 1500
        rng = np.random.default_rng(31)
        u = np.kron(haar_unitary(2, rng), haar_unitary(4, rng))
        raw, rotated = [], []
        for rho, rho2 in zip(sample_states(2, 4, 3, 41, 0, n), sample_states(2, 4, 3, 43, 0, n)):
            raw.append(evaluate_state(rho).ln())
            rot = type(rho)(u @ rho.mat @ u.conj().T, 2, 4)
            rotated.append(
                evaluate_state(type(rho2)(u @ rho2.mat @ u.conj().T, 2, 4)).ln()
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
            verdict(evaluate_state(rho), "pt")[0] for rho in sample_states(3, 4, 6, 53, 0, 200)
        )
        assert hits == 200


STREAM_SEEDS = (0, 1, 42, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1)
STREAM_CELLS = ((2, 2, 1), (2, 5, 6), (6, 6, 36))
# Blocks covering trials 0, 1, 255, 256 and the last 257 trials below
# 2**32, up to the last one, 2**32 - 1.
STREAM_BLOCKS = ((0, 257), (2 ** 32 - 257, 2 ** 32))


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
            ref = reference_stream(*cell, seed, trial)
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

    def test_last_trials_below_2_32_match_reference(self):
        start, stop = STREAM_BLOCKS[1]
        for trial, rho in zip(range(start, stop), sample_states(2, 5, 6, 42, start, stop)):
            assert np.array_equal(rho.mat, reference_state(2, 5, 6, 42, trial).mat)

    @pytest.mark.parametrize(
        "constant", ["_INIT_A", "_MULT_A", "_MIX_MULT_L", "_INIT_B", "_MULT_B", "_PCG_MULT"]
    )
    def test_guard_rejects_a_changed_hash(self, monkeypatch, constant):
        monkeypatch.setattr(sampling, constant, getattr(sampling, constant) ^ 1)
        states = sample_states(2, 5, 6, 42, 0, 256)
        with pytest.raises(RuntimeError, match="disagrees"):
            next(states)
        # a lone trial is hashed and guarded too
        with pytest.raises(RuntimeError, match="disagrees"):
            sample_reduced_state(2, 5, 6, 42, 7)

    def test_rejects_bad_cell(self):
        with pytest.raises(ValueError):
            next(sample_states(2, 5, 11, 42, 0, 3))


def test_zero_draw_raises(monkeypatch):
    """A draw whose norm is not positive (probability zero) is an error, in a
    block and for a lone trial."""
    cell, seed, trial = (2, 5, 6), 42, 300
    rng = reference_stream(*cell, seed, trial)
    zero = rng.standard_normal(60) + 1j * rng.standard_normal(60)
    norm = np.linalg.norm
    monkeypatch.setattr(
        np.linalg, "norm", lambda v: 0.0 if np.array_equal(v, zero) else norm(v)
    )
    with pytest.raises(RuntimeError, match="zero vector"):
        list(sample_states(*cell, seed, trial - 2, trial + 3))
    with pytest.raises(RuntimeError, match="zero vector"):
        sample_tripartite_pure(*cell, seed, trial)


def test_chunk_size_caps_entries():
    assert [sampling._chunk_size(d1, d2) for d1, d2 in ((2, 5), (3, 4), (6, 6), (2, 18))] == [
        40, 28, 3, 3
    ]


@pytest.mark.parametrize(
    "cell, start, stop",
    [
        # each run crosses a block edge (256 from start 0, 293 from start
        # 37), and the block's last chunk is short
        ((2, 5, 6), 0, 300),
        ((2, 5, 6), 37, 421),
        ((3, 4, 12), 27, 60),
        # three matrices a chunk
        ((2, 18, 36), 0, 20),
    ],
)
def test_chunk_edges_equal_reference_sampler(cell, start, stop):
    states = list(sample_states(*cell, 42, start, stop))
    assert len(states) == stop - start
    for trial, rho in zip(range(start, stop), states):
        assert np.array_equal(rho.mat, reference_state(*cell, 42, trial).mat), trial


@pytest.mark.parametrize("cell", [(2, 5, 6), (3, 5, 2), (3, 4, 12), (6, 6, 2)])
def test_sample_states_equal_reference_sampler(cell):
    """Bit-identical to the per-trial SeedSequence sampler: every trial of
    two stream blocks, a block starting mid-way, and the one-trial calls."""
    refs = [reference_state(*cell, 42, t).mat for t in range(512)]
    for ref, rho in zip(refs, sample_states(*cell, 42, 0, 512)):
        assert np.array_equal(rho.mat, ref)
    for ref, rho in zip(refs[100:140], sample_states(*cell, 42, 100, 140)):
        assert np.array_equal(rho.mat, ref)
    for t in (0, 255, 256, 511):
        assert np.array_equal(sample_reduced_state(*cell, 42, t).mat, refs[t])
