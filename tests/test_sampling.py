import numpy as np
import pytest

from entdetect import (
    CRITERIA,
    DensityMatrix,
    evaluate_state,
    purity,
    sample_chunks,
    sample_reduced_state,
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
    joined,
    maximally_mixed,
    product_pure,
    reference_state,
    reference_stream,
    verdict,
)


def sampled_mats(d1, d2, k, master_seed, start, stop):
    """The matrices of trials ``start .. stop - 1``, sample_chunks' stacks
    joined in trial order, as they were yielded."""
    return np.concatenate([c.mat for c in sample_chunks(d1, d2, k, master_seed, start, stop)])


def stacked(d1, d2, k, master_seed, start, stop):
    """The states of trials ``start .. stop - 1`` as one stack."""
    return joined(sample_chunks(d1, d2, k, master_seed, start, stop))


class TestTrialIdentity:
    """A trial is named by (d1, d2, k, master_seed, trial_index); the sampler
    rejects a bad one with a one-line ValueError before drawing."""

    @staticmethod
    def _rejects(d1, d2, k, master_seed, start):
        with pytest.raises(ValueError) as exc:
            next(sample_chunks(d1, d2, k, master_seed, start, start + 3))
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
            next(sample_chunks(2, 3, 2, 0, 2 ** 32 - 1, 2 ** 32 + 1))
        assert "\n" not in str(exc.value)


@pytest.mark.parametrize("cell", [(1, 5, 2), (5, 1, 2), (2, 5, 0), (2, 5, 11)])
def test_bad_cell_gets_one_message_everywhere(cell):
    """Every entry point that takes a cell, or its dimensions, rejects a bad
    one with the same message."""
    d1, d2, k = cell
    calls = [
        lambda: next(sample_chunks(d1, d2, k, 0, 0, 1)),
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
            lambda: DensityMatrix.stack(np.sqrt(mixed)[None], d1, d2),
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
        assert len(rho) == 1 and abs(purity(rho)[0] - 1.0) <= 1e-10

    @pytest.mark.parametrize("k", [2, 4, 10])
    def test_rank_equals_k(self, k):
        rho = stacked(2, 5, k, 11, 0, 20)
        DensityMatrix(rho.mat, 2, 5)
        assert numerical_rank(rho).tolist() == [k] * 20
        assert (np.abs(spectrum(rho.mat).sum(axis=1) - 1.0) <= 1e-9).all()

    def test_mean_purity_matches_formula(self):
        n = 4000
        vals = purity(stacked(2, 5, 4, 17, 0, n))
        assert len(vals) == n
        assert np.mean(vals) == pytest.approx(average_purity(2, 5, 4), abs=0.01)
        assert average_purity(2, 5, 4) == pytest.approx(14 / 41)

    def test_mean_entropy_matches_page(self):
        n = 3000
        vals = von_neumann_entropy(spectrum(stacked(2, 5, 10, 23, 0, n).mat))
        assert vals.shape == (n,)
        _, _, s12 = page_entropies(2, 5, 10)
        # Page's exact mean, H(100) - H(10) - 9/20
        assert s12 == pytest.approx(1.808409, abs=1e-6)
        assert np.mean(vals) == pytest.approx(s12, abs=0.02)

    @pytest.mark.parametrize("cell", [(2, 8, 1), (2, 5, 2)])
    def test_mean_marginal_entropies_match_page(self, cell):
        # S1, S2 and S12 each within 4 standard errors of their Monte Carlo
        # means; at k = 1 the marginals share one spectrum and S12 is 0.
        n = 2000
        rho = stacked(*cell, 61, 0, n)
        vals = np.stack([
            von_neumann_entropy(spectrum(m))
            for m in (partial_trace(rho, 2), partial_trace(rho, 1), rho.mat)
        ], axis=1)
        assert vals.shape == (n, 3)
        se = vals.std(axis=0) / np.sqrt(n)
        assert np.all(np.abs(vals.mean(axis=0) - page_entropies(*cell)) <= 4 * se + 1e-9)

    def test_local_unitary_invariance_of_ln_distribution(self):
        # Two-sample comparison: LN of raw samples vs rotated samples.
        n = 1500
        rng = np.random.default_rng(31)
        u = np.kron(haar_unitary(2, rng), haar_unitary(4, rng))
        rho, rho2 = stacked(2, 4, 3, 41, 0, n), stacked(2, 4, 3, 43, 0, n)
        raw = evaluate_state(rho).ln()
        rot = DensityMatrix(u @ rho.mat @ u.conj().T, 2, 4)
        rotated = evaluate_state(DensityMatrix(u @ rho2.mat @ u.conj().T, 2, 4)).ln()
        assert raw.shape == rotated.shape == (n,)
        assert (np.abs(evaluate_state(rot).ln() - raw) <= 1e-9).all()
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
        detected = evaluate_state(stacked(3, 4, 6, 53, 0, 200)).detected()
        assert detected.shape == (200, 5)
        assert int(detected[:, CRITERIA.index("pt")].sum()) == 200


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
        words = sampling._stream_states(*cell, seed, start, stop)
        assert words.shape == (stop - start, 4) and words.dtype == np.uint64
        assert words.flags.c_contiguous
        for trial, w in zip(range(start, stop), words):
            ref = reference_stream(*cell, seed, trial)
            bitgen = np.random.PCG64(sampling._TrialSeed(w))
            assert bitgen.state == ref.bit_generator.state
            assert np.array_equal(
                np.random.Generator(bitgen).standard_normal(64), ref.standard_normal(64)
            )

    @pytest.mark.filterwarnings("error")
    def test_numpy_integer_arguments(self):
        seed = 2 ** 64 - 1
        assert np.array_equal(
            sampling._stream_states(np.int64(2), np.int64(5), np.int64(6), np.uint64(seed), 0, 4),
            sampling._stream_states(2, 5, 6, seed, 0, 4),
        )

    def test_last_trials_below_2_32_match_reference(self):
        start, stop = STREAM_BLOCKS[1]
        mats = sampled_mats(2, 5, 6, 42, start, stop)
        assert len(mats) == stop - start
        for trial, mat in zip(range(start, stop), mats):
            assert np.array_equal(mat, reference_state(2, 5, 6, 42, trial).mat[0])

    @staticmethod
    def _guard_raises():
        states = sample_chunks(2, 5, 6, 42, 0, 256)
        with pytest.raises(RuntimeError, match="disagrees"):
            next(states)
        # a lone trial is hashed and guarded too
        with pytest.raises(RuntimeError, match="disagrees"):
            sample_reduced_state(2, 5, 6, 42, 7)

    @pytest.mark.parametrize(
        "constant", ["_INIT_A", "_MULT_A", "_MIX_MULT_L", "_INIT_B", "_MULT_B", "_MIX_MULT_R"]
    )
    def test_guard_rejects_a_changed_hash(self, monkeypatch, constant):
        monkeypatch.setattr(sampling, constant, getattr(sampling, constant) ^ 1)
        self._guard_raises()

    def test_guard_rejects_a_strided_handoff(self, monkeypatch):
        # PCG64 reads the handed-over words through their data pointer, so
        # a strided view of the right words seeds another stream; the guard
        # compares the seeded state, not the words.
        def strided(self, n_words, dtype=np.uint32):
            return np.repeat(self.words, 2)[::2]

        monkeypatch.setattr(sampling._TrialSeed, "generate_state", strided)
        self._guard_raises()

    def test_rejects_bad_cell(self):
        with pytest.raises(ValueError):
            next(sample_chunks(2, 5, 11, 42, 0, 3))


def test_zero_draw_raises(monkeypatch):
    """A draw whose norm is not positive (probability zero) is an error, in a
    block and for a lone trial. One trial's Gaussians are zeroed as they are
    drawn: the draw that starts from that trial's stream state."""
    cell, seed, trial = (2, 5, 6), 42, 300
    zeroed = reference_stream(*cell, seed, trial).bit_generator.state
    generator = np.random.Generator

    class ZeroingGenerator:
        def __init__(self, bitgen):
            self.bitgen, self.rng = bitgen, generator(bitgen)

        def standard_normal(self, *, out):
            hit = self.bitgen.state == zeroed
            self.rng.standard_normal(out=out)
            if hit:
                out[:] = 0.0

    monkeypatch.setattr(np.random, "Generator", ZeroingGenerator)
    with pytest.raises(RuntimeError, match="zero vector"):
        list(sample_chunks(*cell, seed, trial - 2, trial + 3))
    with pytest.raises(RuntimeError, match="zero vector"):
        sample_tripartite_pure(*cell, seed, trial)


def test_chunk_size_caps_entries():
    # d1*d2 wide operators without a support stand-in (d1*k >= d2) ...
    assert [sampling._chunk_size(*cell) for cell in (
        (2, 5, 6), (3, 4, 2), (3, 4, 12), (3, 5, 2), (6, 6, 2), (2, 18, 36), (8, 8, 64),
    )] == [256, 227, 227, 145, 32, 32, 32]
    # ... and d1^2 k wide ones with it: 4, 8, 9, 18 and 32 wide, where
    # 2x18 and 2x32 k=2 hold more factor entries (72 and 128) than 64;
    # no chunk holds more than BLOCK_SIZE states, nor fewer than MIN_CHUNK
    assert [sampling._chunk_size(*cell) for cell in (
        (2, 5, 1), (2, 5, 2), (2, 18, 2), (2, 32, 2), (3, 4, 1), (3, 12, 2), (4, 9, 2),
    )] == [256, 256, 256, 256, 256, 101, 32]


def test_chunk_size_keeps_its_budget():
    # Over every cell d1 x d2, 2 <= d1 <= d2, d1 <= 8, d2 <= 32, at every
    # rank, core cells included: a chunk holds at most BLOCK_SIZE states,
    # and above MIN_CHUNK states its stack holds at most CHUNK_ENTRIES
    # entries, each state counted as the larger of its factor entries and
    # the operator the kernel solves.
    assert sampling.CHUNK_ENTRIES == 2 ** 15 and sampling.MIN_CHUNK == 32
    sizes = set()
    for d1 in range(2, 9):
        for d2 in range(d1, 33):
            for k in range(1, d1 * d2 + 1):
                size = sampling._chunk_size(d1, d2, k)
                width = d1 * d1 * k if d1 * k < d2 else d1 * d2
                per_state = max(width ** 2, d1 * d2 * k)
                budget = sampling.CHUNK_ENTRIES
                assert sampling.MIN_CHUNK <= size <= sampling.BLOCK_SIZE, (d1, d2, k)
                assert size == sampling.MIN_CHUNK or size * per_state <= budget, (d1, d2, k)
                # one more state would break the budget, unless the block is full
                assert size == sampling.BLOCK_SIZE or (size + 1) * per_state > budget
                sizes.add(size)
    assert {sampling.MIN_CHUNK, sampling.BLOCK_SIZE} < sizes


@pytest.mark.parametrize(
    "cell, start, stop",
    [
        # each run crosses a block edge (256 from start 0, 293 from start
        # 37), one chunk per block, and the last block is short
        ((2, 5, 6), 0, 300),
        ((2, 5, 6), 37, 421),
        # one chunk, inside a block
        ((3, 4, 12), 27, 60),
        # MIN_CHUNK states a chunk, across two chunk edges
        ((2, 18, 36), 0, 70),
        # a chunk edge inside a block: 227 states a chunk, then 6
        ((3, 4, 12), 27, 260),
    ],
)
def test_chunk_edges_equal_reference_sampler(cell, start, stop):
    mats = sampled_mats(*cell, 42, start, stop)
    assert len(mats) == stop - start
    for trial, mat in zip(range(start, stop), mats):
        assert np.array_equal(mat, reference_state(*cell, 42, trial).mat[0]), trial


@pytest.mark.parametrize("cell", [(2, 5, 6), (3, 5, 2), (3, 4, 12), (6, 6, 2), (2, 18, 36)])
def test_stacked_norms_equal_per_row_norms(cell):
    """The sampler's one stacked norm per chunk gives each row the bits of
    np.linalg.norm of that row alone, on the draws of every cell the
    reference-sampler tests cover."""
    n = cell[0] * cell[1] * cell[2]
    x = np.array([reference_stream(*cell, 42, t).standard_normal(2 * n) for t in range(64)])
    v = x[:, :n] + 1j * x[:, n:]
    per_row = np.array([np.linalg.norm(row) for row in v])
    assert sampling._norms(v).tobytes() == per_row.tobytes()


@pytest.mark.parametrize("cell", [(2, 5, 6), (3, 5, 2), (3, 4, 12), (6, 6, 2)])
def test_sampled_chunks_equal_reference_sampler(cell):
    """Bit-identical to the per-trial SeedSequence sampler: every trial of
    two stream blocks, a block starting mid-way, and the one-trial calls,
    each a stack of one."""
    refs = np.concatenate([reference_state(*cell, 42, t).mat for t in range(512)])
    assert np.array_equal(sampled_mats(*cell, 42, 0, 512), refs)
    assert np.array_equal(sampled_mats(*cell, 42, 100, 140), refs[100:140])
    for t in (0, 255, 256, 511):
        assert np.array_equal(sample_reduced_state(*cell, 42, t).mat, refs[t:t + 1])
