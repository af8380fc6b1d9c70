import math
import pickle

import numpy as np
import pytest

from entdetect import (
    CRITERIA,
    DensityMatrix,
    Records,
    StateRecord,
    evaluate_state,
    partial_transpose,
    purity,
    sample_reduced_state,
    sample_states,
    spectrum,
)
from entdetect.criteria import EPS
from entdetect.linalg import ENTROPY_FLOOR
from entdetect.sampling import sample_chunks
from entdetect.verify import INVARIANTS
from conftest import (
    bell_state,
    haar_unitary,
    maximally_mixed,
    product_pure,
    random_state,
    reference_record,
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
        assert purity(rho) > 1 / 2 ** 2


class TestLogNegativity:
    def test_bell(self):
        assert evaluate_state(bell_state()).ln() == pytest.approx(1.0, abs=1e-12)

    def test_separable_zero(self):
        assert evaluate_state(product_pure(2, 4, seed=4)).ln() == 0.0
        assert evaluate_state(maximally_mixed(3, 3)).ln() == 0.0

    def test_werner_half(self):
        # ||rho^T2||_1 = 1 + 2 |lambda_min| with a single negative eigenvalue
        expected = math.log2(1 + 2 * 0.125)
        assert evaluate_state(werner_state(0.5)).ln() == pytest.approx(expected, abs=1e-12)


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
            assert StateRecord(1.0, witness).detected(eps) == expected, w

    @pytest.mark.parametrize("eps", EPS_VALUES)
    def test_ln_clips_at_one_plus_two_eps(self, eps):
        witness = (0.0,) * len(CRITERIA)
        edge = 1.0 + 2.0 * eps
        assert StateRecord(edge, witness).ln(eps) == 0.0
        above = math.nextafter(edge, math.inf)
        ln = StateRecord(above, witness).ln(eps)
        assert ln == math.log2(above) and ln > 0.0


# Cells on which the kernel must match reference_record bit for bit,
# sides of 9 and more among them.
EXACT_CELLS = [(2, 5, 6), (5, 2, 6), (3, 4, 7), (4, 3, 5), (3, 3, 9), (6, 6, 2),
               (2, 18, 36), (9, 4, 3)]


class TestEvaluateState:
    def test_bell_all_detected(self):
        rec = evaluate_state(bell_state())
        assert all(rec.detected())
        assert rec.ln() == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_none(self):
        rec = evaluate_state(maximally_mixed(2, 3))
        assert not any(rec.detected())
        assert rec.ln() == 0.0

    def test_product_pure_none(self):
        rec = evaluate_state(product_pure(2, 5, seed=5))
        assert not any(rec.detected())
        assert rec.ln() == 0.0

    @pytest.mark.parametrize("trial", range(10))
    def test_matches_individual_detectors(self, trial):
        rho = random_state(3, 4, 7, seed=71, trial=trial)
        rec = evaluate_state(rho)
        ref = reference_record(rho)
        assert rec.detected() == ref.detected()
        assert rec.witness == pytest.approx(ref.witness, abs=1e-10)
        assert rec.tn == pytest.approx(ref.tn, abs=1e-10)
        assert rec.ln() == pytest.approx(ref.ln(), abs=1e-10)

    @pytest.mark.parametrize("cell", EXACT_CELLS)
    def test_reduction_and_majorization_witnesses_exact(self, cell):
        # The kernel forms the reduction operators by broadcasting, the
        # reference with np.kron; the kernel takes the majorization prefix
        # sums along a stack's last axis, the reference one spectrum at a
        # time. Same arithmetic, so the witnesses must agree to the last
        # bit, also on sides of 9 and more.
        d1, d2, k = cell
        for trial, rho in enumerate(sample_states(d1, d2, k, 97, 0, 100)):
            rec = evaluate_state(rho)
            ref = reference_record(rho)
            for i in map(CRITERIA.index, ("reduction", "majorization")):
                assert rec.witness[i] == ref.witness[i], (CRITERIA[i], trial)

    @pytest.mark.parametrize("cell", EXACT_CELLS)
    def test_all_witnesses_and_trace_norm_exact(self, cell):
        # The kernel sums the majorization prefixes with a stacked
        # np.cumsum and the entropies and trace norms with a stacked
        # np.add.reduce; the reference writes out np.cumsum and .sum() per
        # state. Same additions in the same order, so every number must
        # agree to the last bit.
        d1, d2, k = cell
        for trial, rho in enumerate(sample_states(d1, d2, k, 97, 0, 100)):
            rec = evaluate_state(rho)
            assert rec.witness == reference_record(rho).witness, trial
            pt_eigs = np.linalg.eigvalsh(partial_transpose(rho, 1))
            assert rec.tn == float(np.abs(pt_eigs).sum()), trial

    @pytest.mark.parametrize("cell", EXACT_CELLS)
    def test_majorization_witness_sign_is_its_verdict(self, cell):
        # Only prefixes shorter than a marginal are tested, so no witness
        # is the roundoff of 1 - 1: an undetected state's witness is
        # negative, and eps decides no verdict.
        i = CRITERIA.index("majorization")
        for trial, rho in enumerate(sample_states(*cell, 97, 0, 100)):
            rec = evaluate_state(rho)
            assert not 0 <= rec.witness[i] <= EPS, trial
            assert rec.detected(0.0)[i] == rec.detected(EPS)[i], trial

    def test_witnesses_finite(self):
        rec = evaluate_state(random_state(2, 6, 12, seed=73))
        assert all(math.isfinite(w) for w in rec.witness)


def _bits(rec):
    """A record's numbers as their IEEE bit patterns, so -0.0 != 0.0."""
    return np.array([rec.tn, *rec.witness]).view(np.uint64).tolist()


# (cell, trials): each run spans more than one chunk of sample_chunks
# where a chunk is shorter than the run.
STACK_CELLS = [((2, 2, 1), 40)] + [((2, 5, k), 50) for k in range(1, 11)] + [
    ((3, 4, 12), 40), ((3, 5, 2), 40), ((6, 6, 2), 8), ((2, 18, 36), 7),
]


class TestStackedKernel:
    """evaluate_state on a stack is B one-matrix calls, bit for bit."""

    @pytest.mark.parametrize("cell, trials", STACK_CELLS)
    def test_stack_equals_one_matrix_calls_and_reference(self, cell, trials):
        chunks = list(sample_chunks(*cell, 97, 0, trials))
        assert sum(map(len, chunks)) == trials and (len(chunks) > 1 or cell == (2, 2, 1))
        for chunk in chunks:
            recs = evaluate_state(chunk)
            assert len(recs) == len(chunk)
            for trial, (rho, rec) in enumerate(zip(chunk, recs)):
                assert type(rec.tn) is float and all(type(w) is float for w in rec.witness)
                assert _bits(rec) == _bits(evaluate_state(rho)), trial
                assert _bits(rec) == _bits(reference_record(rho)), trial

    def test_one_matrix_gives_one_record(self):
        rho = random_state(2, 5, 6, seed=3)
        rec = evaluate_state(rho)
        assert isinstance(rec, StateRecord)
        [from_stack] = evaluate_state(DensityMatrix.stack(rho.mat[None], 2, 5))
        assert _bits(from_stack) == _bits(rec)

    def test_mixed_ranks_in_one_stack(self):
        # Ranks 1 and 10 side by side: the spectra keep different numbers
        # of terms above the entropy floor, so one call sums the entropies
        # of several groups.
        mats = [random_state(2, 5, k, seed=5, trial=t).mat
                for t in range(6) for k in (1, 10, 1, 3)]
        stack = DensityMatrix(np.stack(mats), 2, 5)
        kept = {int((spectrum(rho.mat) > ENTROPY_FLOOR).sum()) for rho in stack}
        assert {1, 3, 10} <= kept
        recs = evaluate_state(stack)
        assert len(recs) == len(mats)
        for trial, (rho, rec) in enumerate(zip(stack, recs)):
            assert _bits(rec) == _bits(evaluate_state(rho)), trial
            assert _bits(rec) == _bits(reference_record(rho)), trial


def _column_bits(records):
    """Both columns of Records as their IEEE bit patterns."""
    return records.tn.view(np.uint64).tolist(), records.witness.view(np.uint64).tolist()


class TestRecords:
    """A stack's Records are its states' one-matrix records as columns."""

    @pytest.mark.parametrize("cell, trials", STACK_CELLS)
    def test_columns_equal_one_matrix_calls_and_reference(self, cell, trials):
        for chunk in sample_chunks(*cell, 97, 0, trials):
            recs = evaluate_state(chunk)
            assert isinstance(recs, Records)
            assert recs.tn.dtype == recs.witness.dtype == np.float64
            assert recs.tn.shape == (len(chunk),)
            assert recs.witness.shape == (len(chunk), len(CRITERIA))
            one = Records.from_records(evaluate_state(rho) for rho in chunk)
            ref = Records.from_records(reference_record(rho) for rho in chunk)
            assert _column_bits(recs) == _column_bits(one) == _column_bits(ref)

    def test_states_are_python_float_records_of_the_columns(self):
        chunk = next(sample_chunks(2, 5, 6, 97, 0, 40))
        recs = evaluate_state(chunk)
        as_list = list(recs)
        assert len(recs) == len(as_list) == 40
        for i, rec in enumerate(as_list):
            assert isinstance(rec, StateRecord) and rec == recs[i] == recs[i - 40]
            assert type(rec.tn) is float and all(type(w) is float for w in rec.witness)
            assert rec.tn == recs.tn.tolist()[i]
            assert rec.witness == tuple(recs.witness[i].tolist())
        assert Records.from_records(as_list) == recs
        assert recs.ln().tolist() == [rec.ln() for rec in as_list]
        assert recs.detected().tolist() == [list(rec.detected()) for rec in as_list]

    def test_equality_is_exact_on_both_columns(self):
        recs = evaluate_state(next(sample_chunks(2, 5, 6, 97, 0, 40)))
        for column in ("tn", "witness"):
            changed = Records(recs.tn.copy(), recs.witness.copy())
            assert changed == recs
            values = getattr(changed, column).reshape(-1)
            values[-1] = np.nextafter(values[-1], np.inf)
            assert changed != recs, column
        assert recs != list(recs)

    def test_concat_keeps_order(self):
        chunks = list(sample_chunks(3, 4, 12, 97, 0, 60))
        parts = [evaluate_state(chunk) for chunk in chunks]
        assert len(parts) > 1
        joined = Records.concat(parts)
        assert list(joined) == [rec for part in parts for rec in part]
        assert joined == Records.from_records(
            evaluate_state(rho) for chunk in chunks for rho in chunk
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
        assert abs(a.ln() - b.ln()) <= 1e-9
        assert a.detected() == b.detected()
        assert a.witness == pytest.approx(b.witness, abs=1e-9)
