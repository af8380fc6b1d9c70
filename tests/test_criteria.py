import math
import pickle

import numpy as np
import pytest

from entdetect import (
    CRITERIA,
    DensityMatrix,
    Records,
    evaluate_state,
    partial_trace,
    partial_transpose,
    purity,
    realign,
    sample_reduced_state,
    sample_tripartite_pure,
    spectrum,
    trace_norm,
    von_neumann_entropy,
)
from entdetect.criteria import EPS
from entdetect.linalg import ENTROPY_FLOOR
from entdetect.sampling import sample_chunks
from entdetect.verify import INVARIANTS
from conftest import (
    as_records,
    bell_state,
    haar_unitary,
    majorization_excess,
    maximally_mixed,
    product_pure,
    random_state,
    reference_entropy,
    reference_marginal,
    reference_record,
    row_of,
    states_of,
    verdict,
    werner_state,
)


def werner_pt_min_eig(p):
    # closed-form PT eigenvalues of the Werner family: the singlet-weight
    # eigenvalue is (1 - 3p)/4, the other three are (1 + p)/4
    return (1 - 3 * p) / 4


class TestPT:
    def test_bell(self):
        detected, witness = verdict(evaluate_state(bell_state()), "pt")
        assert detected and witness == pytest.approx(-0.5, abs=1e-12)

    @pytest.mark.parametrize("p,expect", [(0.5, True), (0.2, False)])
    def test_werner(self, p, expect):
        detected, witness = verdict(evaluate_state(werner_state(p)), "pt")
        assert detected is expect
        assert witness == pytest.approx(werner_pt_min_eig(p), abs=1e-12)


class TestReduction:
    def test_bell(self):
        detected, witness = verdict(evaluate_state(bell_state()), "reduction")
        assert detected and witness == pytest.approx(-0.5, abs=1e-12)

    def test_maximally_mixed(self):
        assert not verdict(evaluate_state(maximally_mixed(2, 3)), "reduction")[0]

    @pytest.mark.parametrize("trial", range(25))
    def test_prop3_equivalence_2x4(self, trial):
        rho = random_state(2, 4, 5, seed=61, trial=trial)
        rec = evaluate_state(rho)
        assert verdict(rec, "reduction")[0] == verdict(rec, "pt")[0]


class TestMajorization:
    def test_bell(self):
        detected, witness = verdict(evaluate_state(bell_state()), "majorization")
        assert detected and witness == pytest.approx(0.5, abs=1e-12)

    def test_pure_product(self):
        detected, witness = verdict(evaluate_state(product_pure(2, 3, seed=1)), "majorization")
        assert not detected and abs(witness) <= 1e-12

    def test_maximally_mixed(self):
        assert not verdict(evaluate_state(maximally_mixed(2, 2)), "majorization")[0]


class TestEntropy:
    def test_bell(self):
        detected, witness = verdict(evaluate_state(bell_state()), "entropy")
        assert detected and witness == pytest.approx(-math.log(2), abs=1e-12)

    def test_product_not_detected(self):
        assert not verdict(evaluate_state(product_pure(3, 4, seed=2)), "entropy")[0]

    @pytest.mark.parametrize("p,expect", [(0.9, True), (0.6, False)])
    def test_werner_boundary(self, p, expect):
        # Oracle: closed-form Werner spectra. Global eigenvalues are
        # (1+3p)/4 and three copies of (1-p)/4; marginals are I/2.
        lam = np.array([(1 + 3 * p) / 4] + [(1 - p) / 4] * 3)
        s12 = float(-(lam[lam > 0] * np.log(lam[lam > 0])).sum())
        assert (s12 - math.log(2) < 0) is expect
        assert verdict(evaluate_state(werner_state(p)), "entropy")[0] is expect


class TestRealignment:
    def test_bell(self):
        detected, witness = verdict(evaluate_state(bell_state()), "realignment")
        assert detected and witness == pytest.approx(1.0, abs=1e-12)

    def test_pure_product_boundary_not_detected(self):
        detected, witness = verdict(evaluate_state(product_pure(2, 3, seed=3)), "realignment")
        assert not detected and abs(witness) <= 1e-9

    def test_maximally_mixed(self):
        detected, witness = verdict(evaluate_state(maximally_mixed(2, 5)), "realignment")
        assert not detected
        assert witness == pytest.approx(1 / math.sqrt(10) - 1, abs=1e-12)

    def test_rank_9_detection_above_average_bound_is_genuine(self):
        # 2x5 rank 9 lies above realignment_rank_bound(2, 5) = 6.5, which
        # bounds the average state only; this state's purity exceeds 1/d1^2.
        rho = sample_reduced_state(2, 5, 9, 42, 2428)
        detected, witness = verdict(evaluate_state(rho), "realignment")
        r = rho.mat.reshape(2, 5, 2, 5).transpose(0, 2, 1, 3).reshape(4, 25)
        sv = np.sqrt(np.clip(np.linalg.eigvalsh(r @ r.conj().T), 0.0, None))
        assert detected
        assert witness == pytest.approx(sv.sum() - 1.0, abs=1e-12)
        assert witness >= 0.01
        assert purity(rho)[0] > 1 / 2 ** 2


class TestLogNegativity:
    def test_bell(self):
        assert evaluate_state(bell_state()).ln()[0] == pytest.approx(1.0, abs=1e-12)

    def test_separable_zero(self):
        assert evaluate_state(product_pure(2, 4, seed=4)).ln()[0] == 0.0
        assert evaluate_state(maximally_mixed(3, 3)).ln()[0] == 0.0

    def test_werner_half(self):
        # ||rho^T2||_1 = 1 + 2 |lambda_min| with a single negative eigenvalue
        expected = math.log2(1 + 2 * 0.125)
        assert evaluate_state(werner_state(0.5)).ln()[0] == pytest.approx(expected, abs=1e-12)


# Each criterion's threshold direction, written out as the criteria
# docstring states it: True where it fires below -eps, False above +eps.
FIRES_BELOW = [
    ("pt", True),
    ("reduction", True),
    ("majorization", False),
    ("entropy", True),
    ("realignment", False),
]
EPS_VALUES = [0.0, 1e-10, 1e-2]


class TestThresholds:
    @pytest.mark.parametrize("eps", EPS_VALUES)
    @pytest.mark.parametrize("criterion,below", FIRES_BELOW)
    def test_detected_is_strict(self, criterion, below, eps):
        i = CRITERIA.index(criterion)
        threshold = -eps if below else eps
        past = math.nextafter(threshold, -math.inf if below else math.inf)
        # at the threshold: not detected; the next float past it: detected;
        # the same distance on the other side: not detected
        for w, fires in ((threshold, False), (past, True), (-past, False)):
            witness = tuple(w if j == i else 0.0 for j in range(len(CRITERIA)))
            expected = tuple(fires and j == i for j in range(len(CRITERIA)))
            assert as_records([(1.0, witness)]).detected(eps)[0].tolist() == list(expected), w

    @pytest.mark.parametrize("eps", EPS_VALUES)
    def test_ln_clips_at_one_plus_two_eps(self, eps):
        witness = (0.0,) * len(CRITERIA)
        edge = 1.0 + 2.0 * eps
        assert as_records([(edge, witness)]).ln(eps)[0] == 0.0
        above = math.nextafter(edge, math.inf)
        ln = as_records([(above, witness)]).ln(eps)[0]
        assert ln == np.log2(above) and ln > 0.0


# Cells on which the kernel must match reference_record bit for bit,
# sides of 9 and more among them.
EXACT_CELLS = [(2, 5, 6), (5, 2, 6), (3, 4, 7), (4, 3, 5), (3, 3, 9), (6, 6, 2),
               (2, 18, 36), (9, 4, 3)]


def _rows(cell, seed, stop):
    """(trial, its own stack of one, its row of its chunk's Records) for
    each trial below ``stop`` of ``cell``: one evaluate_state call per
    sampler chunk, as a sweep makes them."""
    trial = 0
    for chunk in sample_chunks(*cell, seed, 0, stop):
        recs = evaluate_state(chunk)
        for i, one in enumerate(states_of(chunk)):
            yield trial, one, row_of(recs, i)
            trial += 1


class TestEvaluateState:
    def test_bell_all_detected(self):
        rec = evaluate_state(bell_state())
        assert rec.detected()[0].all()
        assert rec.ln()[0] == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_none(self):
        rec = evaluate_state(maximally_mixed(2, 3))
        assert not rec.detected()[0].any()
        assert rec.ln()[0] == 0.0

    def test_product_pure_none(self):
        rec = evaluate_state(product_pure(2, 5, seed=5))
        assert not rec.detected()[0].any()
        assert rec.ln()[0] == 0.0

    @pytest.mark.parametrize("trial", range(10))
    def test_matches_individual_detectors(self, trial):
        rho = random_state(3, 4, 7, seed=71, trial=trial)
        rec = evaluate_state(rho)
        ref = as_records([reference_record(rho)])
        assert rec.detected()[0].tolist() == ref.detected()[0].tolist()
        assert rec.witness[0].tolist() == pytest.approx(ref.witness[0].tolist(), abs=1e-10)
        assert rec.tn[0] == pytest.approx(ref.tn[0], abs=1e-10)
        assert rec.ln()[0] == pytest.approx(ref.ln()[0], abs=1e-10)

    @pytest.mark.parametrize("cell", EXACT_CELLS)
    def test_reduction_and_majorization_witnesses_exact(self, cell):
        # The kernel forms the reduction operators by broadcasting, the
        # reference with np.kron; the kernel takes the majorization prefix
        # sums along a stack's last axis, the reference one spectrum at a
        # time. Same arithmetic, so the witnesses must agree to the last
        # bit, also on sides of 9 and more.
        for trial, one, rec in _rows(cell, 97, 100):
            _, ref_witness = reference_record(one)
            for i in map(CRITERIA.index, ("reduction", "majorization")):
                assert rec.witness[0, i] == ref_witness[i], (CRITERIA[i], trial)

    @pytest.mark.parametrize("cell", EXACT_CELLS)
    def test_all_witnesses_and_trace_norm_exact(self, cell):
        # The kernel sums the majorization prefixes with a stacked
        # np.cumsum and the entropies and trace norms with a stacked
        # np.add.reduce; the reference writes out np.cumsum and .sum() per
        # state. Same additions in the same order, so every number must
        # agree to the last bit.
        for trial, one, rec in _rows(cell, 97, 100):
            assert tuple(rec.witness[0].tolist()) == reference_record(one)[1], trial
            pt_eigs = np.linalg.eigvalsh(partial_transpose(one, 1)[0])
            assert rec.tn[0] == float(np.abs(pt_eigs).sum()), trial

    @pytest.mark.parametrize("cell", EXACT_CELLS)
    def test_majorization_witness_sign_is_its_verdict(self, cell):
        # Only prefixes shorter than a marginal are tested, so no witness
        # is the roundoff of 1 - 1: an undetected state's witness is
        # negative, and eps decides no verdict.
        i = CRITERIA.index("majorization")
        for trial, _, rec in _rows(cell, 97, 100):
            assert not 0 <= rec.witness[0, i] <= EPS, trial
            assert rec.detected(0.0)[0, i] == rec.detected(EPS)[0, i], trial

    def test_witnesses_finite(self):
        rec = evaluate_state(random_state(2, 6, 12, seed=73))
        assert rec.witness.shape == (1, len(CRITERIA))
        assert all(math.isfinite(w) for w in rec.witness[0].tolist())


def _bits(tn, witness):
    """A state's numbers as their IEEE bit patterns, so -0.0 != 0.0."""
    return np.array([tn, *witness]).view(np.uint64).tolist()


def _row_bits(recs, i=0):
    """The bit patterns of state ``i`` of Records."""
    return _bits(recs.tn[i], recs.witness[i])


# (cell, trials)
CELLS = [((2, 2, 1), 40)] + [((2, 5, k), 50) for k in range(1, 11)] + [
    ((3, 4, 12), 40), ((3, 5, 2), 40), ((6, 6, 2), 8), ((2, 18, 36), 7),
]
# CELLS, 2x5 k=1 and k=2 (solved on their support stand-in), 6x6 k=2 and
# 2x18 k=36 with more trials; then each cell whose run there is one chunk
# again, with a run that spans more than one: every 2x5 cell runs in
# chunks of 256, one per block, 3x4 k=12 in chunks of 227 and 3x5 k=2 in
# chunks of 145.
STACK_CELLS = [(cell, {(2, 5, 1): 300, (2, 5, 2): 100, (6, 6, 2): 40, (2, 18, 36): 36}
                .get(cell, trials)) for cell, trials in CELLS] + [
    ((2, 5, k), 300) for k in range(2, 11)] + [((3, 4, 12), 240), ((3, 5, 2), 160)]


class TestStackedKernel:
    """evaluate_state on a stack is B calls on stacks of one, bit for bit."""

    @pytest.mark.parametrize("cell, trials", STACK_CELLS)
    def test_stack_equals_one_matrix_calls_and_reference(self, cell, trials):
        chunks = list(sample_chunks(*cell, 97, 0, trials))
        assert sum(map(len, chunks)) == trials
        for chunk in chunks:
            recs = evaluate_state(chunk)
            assert len(recs) == len(chunk)
            for trial, one in enumerate(states_of(chunk)):
                assert _row_bits(recs, trial) == _row_bits(evaluate_state(one)), trial
                assert _row_bits(recs, trial) == _bits(*reference_record(one)), trial

    def test_every_cell_has_a_run_across_a_chunk_edge(self):
        # each cell of CELLS but 2x2 k=1 has a run in STACK_CELLS that
        # sample_chunks cuts into more than one chunk
        spans = {cell for cell, trials in STACK_CELLS
                 if len(list(sample_chunks(*cell, 97, 0, trials))) > 1}
        assert spans == {cell for cell, _ in CELLS} - {(2, 2, 1)}

    def test_one_matrix_gives_one_record(self):
        a = sample_tripartite_pure(2, 5, 6, 3).reshape(10, 6)
        one = DensityMatrix(a @ a.conj().T, 2, 5)
        assert len(one) == 1 and one.mat.shape == (1, 10, 10)
        recs = evaluate_state(one)
        assert isinstance(recs, Records) and len(recs) == 1
        # The factor's stack of one holds the same rho; only the global
        # spectrum is solved on another matrix, A^dag A, so the two
        # witnesses that read it agree to rounding and the rest to the bit.
        stack = DensityMatrix.stack(a[None], 2, 5)
        assert np.array_equal(stack.mat, one.mat) and stack.gram.shape == (1, 6, 6)
        from_stack = evaluate_state(stack)
        assert from_stack.tn.tolist() == recs.tn.tolist()
        for i, name in enumerate(CRITERIA):
            if name in ("majorization", "entropy"):
                assert abs(from_stack.witness[0, i] - recs.witness[0, i]) <= 1e-13, name
            else:
                assert from_stack.witness[0, i] == recs.witness[0, i], name

    def test_mixed_ranks_in_one_stack(self):
        # Ranks 1 and 10 side by side: the spectra keep different numbers
        # of terms above the entropy floor, each spectrum masked and summed
        # in its own row of one call.
        mats = [random_state(2, 5, k, seed=5, trial=t).mat[0]
                for t in range(6) for k in (1, 10, 1, 3)]
        stack = DensityMatrix(np.stack(mats), 2, 5)
        kept = set((spectrum(stack.mat) > ENTROPY_FLOOR).sum(axis=1).tolist())
        assert {1, 3, 10} <= kept
        recs = evaluate_state(stack)
        assert len(recs) == len(mats)
        for trial, one in enumerate(states_of(stack)):
            assert _row_bits(recs, trial) == _row_bits(evaluate_state(one)), trial
            assert _row_bits(recs, trial) == _bits(*reference_record(one)), trial


# CELLS with 2x18 and 6x6 at both k = 2 and k = n.
SOLVE_CELLS = CELLS + [((2, 18, 2), 7), ((6, 6, 36), 8)]


def _full_solve_columns(chunk):
    """The majorization, entropy and realignment witnesses of each state
    of ``chunk`` from the n x n eigvalsh of rho and the svd of the
    realigned matrix as realign lays it out (wide for d1 < d2), neither
    of the kernel's smaller solves."""
    rows = []
    for one in states_of(chunk):
        eigs = np.linalg.eigvalsh(one.mat[0])[::-1]
        marginals = [np.linalg.eigvalsh(reference_marginal(one, side))[::-1] for side in (2, 1)]
        s12 = reference_entropy(eigs)
        rows.append((max(majorization_excess(eigs, m) for m in marginals),
                     min(s12 - reference_entropy(m) for m in marginals),
                     np.linalg.svd(realign(one)[0], compute_uv=False).sum() - 1.0))
    return np.array(rows)


class TestSmallerSolves:
    """The kernel's smaller LAPACK problems, rho's spectrum from its k x k
    stand-in and the realignment singular values from the tall
    orientation, agree with the full n x n and wide solves to rounding."""

    @pytest.mark.parametrize("cell, trials", SOLVE_CELLS)
    def test_stand_in_spectrum_is_rhos_with_exact_zeros_last(self, cell, trials):
        d1, d2, k = cell
        n = d1 * d2
        for chunk in sample_chunks(*cell, 97, 0, trials):
            eigs = spectrum(chunk.gram, n)
            full = np.sort(np.linalg.eigvalsh(chunk.mat), axis=-1)[:, ::-1]
            assert eigs.shape == full.shape == (len(chunk), n)
            assert np.abs(eigs - full).max() <= 1e-14
            assert ((eigs == 0.0).sum(axis=-1) == n - k).all()

    @pytest.mark.parametrize("cell, trials", SOLVE_CELLS)
    def test_tall_trace_norm_is_the_wide_svd_sum(self, cell, trials):
        for chunk in sample_chunks(*cell, 97, 0, trials):
            wide = realign(chunk)
            want = np.linalg.svd(wide, compute_uv=False).sum(axis=-1)
            assert np.abs(trace_norm(wide) - want).max() <= 1e-13

    @pytest.mark.parametrize("cell, trials", SOLVE_CELLS)
    def test_spectral_witnesses_match_the_full_solves(self, cell, trials):
        cols = [CRITERIA.index(c) for c in ("majorization", "entropy", "realignment")]
        for chunk in sample_chunks(*cell, 97, 0, trials):
            got = evaluate_state(chunk).witness[:, cols]
            assert np.abs(got - _full_solve_columns(chunk)).max() <= 1e-13


# Cells with d1*k < d2, whose stacks carry a support stand-in, and cells
# at or past the edge d1*k = d2, whose stacks do not.
CORE_CELLS = [(2, 5, 2), (2, 8, 3), (2, 18, 2), (2, 18, 5), (2, 18, 8), (3, 12, 2),
              (3, 12, 3), (4, 9, 2), (2, 32, 2), (3, 4, 1)]
NO_CORE_CELLS = [(2, 4, 2), (2, 5, 3), (3, 4, 2), (2, 18, 9), (3, 12, 4), (4, 9, 3),
                 (6, 6, 1), (6, 6, 2)]


class TestSupportSolves:
    """A stack with d1*k < d2 is solved on its support stand-in ``core``,
    d1^2 k wide, and agrees with the full n x n solves of the checked
    constructor, which builds no core, to rounding and in every verdict."""

    @pytest.mark.parametrize("cell", CORE_CELLS)
    def test_columns_match_the_full_size_path(self, cell):
        d1, d2, k = cell
        for chunk in sample_chunks(*cell, 97, 0, 24):
            assert chunk.core is not None and chunk.core.core is None
            assert (chunk.core.d1, chunk.core.d2) == (d1, d1 * k)
            full = DensityMatrix(chunk.mat, d1, d2)
            assert full.core is None
            got, want = evaluate_state(chunk), evaluate_state(full)
            assert np.abs(got.tn - want.tn).max() <= 1e-13
            assert np.abs(got.witness - want.witness).max() <= 1e-13
            for eps in (0.0, EPS):
                assert np.array_equal(got.detected(eps), want.detected(eps)), eps
                assert np.array_equal(got.ln(eps) > 0, want.ln(eps) > 0), eps

    @pytest.mark.parametrize("cell", CORE_CELLS)
    def test_core_is_the_state_on_its_marginals_support(self, cell):
        # rho1 and rho's spectrum are kept by the local isometry, and rho2's
        # nonzero spectrum is the core's.
        d1, d2, k = cell
        chunk = next(sample_chunks(*cell, 97, 0, 24))
        core = chunk.core
        assert np.abs(partial_trace(core, 2) - partial_trace(chunk, 2)).max() <= 1e-14
        for a, b, size in ((core.mat, chunk.mat, d1 * d2), (partial_trace(core, 1),
                                                            partial_trace(chunk, 1), d2)):
            assert np.abs(spectrum(a, size) - spectrum(b)).max() <= 1e-14

    @pytest.mark.parametrize("cell", NO_CORE_CELLS)
    def test_no_core_at_or_past_the_edge_and_bits_kept(self, cell):
        # d1*k >= d2: no core, and each state's columns are the full-size
        # reference's bits.
        for chunk in sample_chunks(*cell, 97, 0, 24):
            assert chunk.core is None
            recs = evaluate_state(chunk)
            for trial, one in enumerate(states_of(chunk)):
                assert _row_bits(recs, trial) == _bits(*reference_record(one)), trial


# The entropy floor as the package states it, written here rather than
# read from linalg, so that a floor moved in the kernel shows.
KEPT_FLOOR = 1e-14


def _kept_terms_entropy(eigs):
    """The entropy of one spectrum from its kept terms alone: the entries
    above the floor, clipped to 1, times their logs, summed."""
    p = np.minimum(eigs[eigs > KEPT_FLOOR], 1.0)
    return max(float(-(p * np.log(p)).sum()), 0.0)


class TestEntropyAndLNTolerance:
    """The entropy witness and LN against expressions that share neither
    the kernel's masked row sum nor np.log2: each spectrum's kept terms
    summed on their own, and math.log2 of each trace norm."""

    @pytest.mark.parametrize("cell, trials", SOLVE_CELLS)
    def test_entropy_witness_is_the_kept_terms_sum(self, cell, trials):
        i = CRITERIA.index("entropy")
        n = cell[0] * cell[1]
        for chunk in sample_chunks(*cell, 97, 0, trials):
            got = evaluate_state(chunk).witness[:, i]
            for b, one in enumerate(states_of(chunk)):
                s12 = _kept_terms_entropy(spectrum(one.gram[0], n))
                marginals = [np.linalg.eigvalsh(reference_marginal(one, side)) for side in (2, 1)]
                want = min(s12 - _kept_terms_entropy(m) for m in marginals)
                assert abs(got[b] - want) <= 1e-14, b

    def test_entropy_of_rows_near_the_floor_is_the_kept_terms_sum(self):
        # Entries of order 1e-13 sit above the floor, and each term is
        # ~3e-12, so a floor moved past them shows; entries of 1e-16 and
        # tiny negatives sit below it.
        rng = np.random.default_rng(13)
        for n in (2, 5, 10, 36):
            rows = rng.random((200, n)) * rng.choice([1e-16, 1e-13, 1.0, 1.5], (200, n))
            rows -= rng.choice([0.0, 1e-15], (200, n))
            assert ((rows > 1e-14) & (rows <= 1e-12)).any(axis=1).mean() > 0.25
            want = np.array([_kept_terms_entropy(row) for row in rows])
            assert np.abs(von_neumann_entropy(rows) - want).max() <= 1e-14, n

    @pytest.mark.parametrize("cell, trials", SOLVE_CELLS)
    def test_ln_is_math_log2_within_one_spacing(self, cell, trials):
        for chunk in sample_chunks(*cell, 97, 0, trials):
            recs = evaluate_state(chunk)
            for eps in EPS_VALUES:
                for ln, tn in zip(recs.ln(eps).tolist(), recs.tn.tolist()):
                    want = math.log2(tn) if tn > 1.0 + 2.0 * eps else 0.0
                    assert abs(ln - want) <= np.spacing(want), (tn, eps)


def _column_bits(records):
    """Both columns of Records as their IEEE bit patterns."""
    return records.tn.view(np.uint64).tolist(), records.witness.view(np.uint64).tolist()


class TestRecords:
    """A stack's Records are the columns of its states' stacks of one."""

    @pytest.mark.parametrize("cell, trials", STACK_CELLS)
    def test_columns_equal_one_matrix_calls_and_reference(self, cell, trials):
        for chunk in sample_chunks(*cell, 97, 0, trials):
            recs = evaluate_state(chunk)
            assert isinstance(recs, Records)
            assert recs.tn.dtype == recs.witness.dtype == np.float64
            assert recs.tn.shape == (len(chunk),)
            assert recs.witness.shape == (len(chunk), len(CRITERIA))
            one = Records.concat([evaluate_state(s) for s in states_of(chunk)])
            refs = [reference_record(s) for s in states_of(chunk)]
            ref = as_records(refs)
            assert _column_bits(recs) == _column_bits(one) == _column_bits(ref)

    @pytest.mark.parametrize("eps", EPS_VALUES)
    def test_ln_is_np_log2_of_each_trace_norm(self, eps):
        # np.log2 of each trace norm alone, a scalar call: a state's LN
        # has the same bits wherever it sits in a column.
        recs = evaluate_state(next(sample_chunks(2, 5, 6, 97, 0, 40)))
        ln = recs.ln(eps)
        assert ln.dtype == np.float64 and ln.shape == (40,)
        assert ln.tolist() == [float(np.log2(t)) if t > 1.0 + 2.0 * eps else 0.0
                               for t in recs.tn.tolist()]

    def test_equality_is_exact_on_both_columns(self):
        recs = evaluate_state(next(sample_chunks(2, 5, 6, 97, 0, 40)))
        for column in ("tn", "witness"):
            changed = Records(recs.tn.copy(), recs.witness.copy())
            assert changed == recs
            values = getattr(changed, column).reshape(-1)
            values[-1] = np.nextafter(values[-1], np.inf)
            assert changed != recs, column
        assert recs != (recs.tn, recs.witness)

    def test_concat_keeps_order(self):
        # 3x4 k=12 runs in chunks of 227: 240 trials are two chunks
        chunks = list(sample_chunks(3, 4, 12, 97, 0, 240))
        parts = [evaluate_state(chunk) for chunk in chunks]
        assert len(parts) > 1
        joined = Records.concat(parts)
        assert _column_bits(joined) == (
            [t for part in parts for t in _column_bits(part)[0]],
            [w for part in parts for w in _column_bits(part)[1]],
        )
        assert joined == Records.concat(
            [evaluate_state(one) for chunk in chunks for one in states_of(chunk)]
        )

    def test_pickle_round_trip(self):
        recs = evaluate_state(next(sample_chunks(2, 5, 6, 97, 0, 40)))
        back = pickle.loads(pickle.dumps(recs))
        assert isinstance(back, Records) and back == recs
        assert _column_bits(back) == _column_bits(recs)


class TestImplications:
    @pytest.mark.parametrize("cell", [(2, 4, 5), (2, 5, 6), (3, 3, 5), (3, 5, 8)])
    def test_entropy_implies_majorization_and_reduction_implies_pt(self, cell):
        # Every invariant of the table, these two among them, on every
        # state; a failure names the trials it failed on.
        start = 0
        for chunk in sample_chunks(*cell, 83, 0, 50):
            recs = evaluate_state(chunk)
            for name, margin in INVARIANTS.items():
                m = np.broadcast_to(margin(cell, chunk, recs, EPS), len(recs))
                assert (m >= 0).all(), (name, (start + np.flatnonzero(~(m >= 0))).tolist())
            start += len(chunk)
        assert start == 50

    @pytest.mark.parametrize("trial", range(20))
    def test_prop3_spectral_form(self, trial):
        # In 2 x d, I (x) rho_2 - rho and rho^T1 are unitarily equivalent.
        rho = random_state(2, 5, 7, seed=89, trial=trial)
        rho2 = np.einsum("imin->mn", rho.mat.reshape(2, 5, 2, 5))
        red = np.kron(np.eye(2), rho2) - rho.mat
        np.testing.assert_allclose(
            np.linalg.eigvalsh(red),
            np.linalg.eigvalsh(partial_transpose(rho, 1)),
            atol=1e-9,
        )


class TestLocalUnitaryInvariance:
    @pytest.mark.parametrize("trial", range(5))
    def test_all_outputs_invariant(self, trial):
        rho = random_state(3, 4, 6, seed=97, trial=trial)
        rng = np.random.default_rng(1000 + trial)
        u = np.kron(haar_unitary(3, rng), haar_unitary(4, rng))
        rotated = DensityMatrix(u @ rho.mat @ u.conj().T, 3, 4)
        a, b = evaluate_state(rho), evaluate_state(rotated)
        assert abs(a.ln()[0] - b.ln()[0]) <= 1e-9
        assert a.detected().tolist() == b.detected().tolist()
        assert a.witness[0].tolist() == pytest.approx(b.witness[0].tolist(), abs=1e-9)
