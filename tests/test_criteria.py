import math

import numpy as np
import pytest

from entdetect import (
    CRITERIA,
    DensityMatrix,
    SampleSpec,
    evaluate_state,
    partial_transpose,
    purity,
    sample_reduced_state,
)
from entdetect.analytics import ln_threshold
from conftest import (
    bell_state,
    haar_unitary,
    maximally_mixed,
    product_pure,
    random_state,
    reference_verdicts,
    werner_state,
)


def werner_pt_min_eig(p):
    # closed-form PT eigenvalues of the Werner family: the singlet-weight
    # eigenvalue is (1 - 3p)/4, the other three are (1 + p)/4
    return (1 - 3 * p) / 4


class TestPT:
    def test_bell(self):
        v = evaluate_state(bell_state()).verdicts["pt"]
        assert v.detected and v.witness == pytest.approx(-0.5, abs=1e-12)

    @pytest.mark.parametrize("p,expect", [(0.5, True), (0.2, False)])
    def test_werner(self, p, expect):
        v = evaluate_state(werner_state(p)).verdicts["pt"]
        assert v.detected is expect
        assert v.witness == pytest.approx(werner_pt_min_eig(p), abs=1e-12)


class TestReduction:
    def test_bell(self):
        v = evaluate_state(bell_state()).verdicts["reduction"]
        assert v.detected and v.witness == pytest.approx(-0.5, abs=1e-12)

    def test_maximally_mixed(self):
        assert not evaluate_state(maximally_mixed(2, 3)).verdicts["reduction"].detected

    @pytest.mark.parametrize("trial", range(25))
    def test_prop3_equivalence_2x4(self, trial):
        rho = random_state(2, 4, 5, seed=61, trial=trial)
        v = evaluate_state(rho).verdicts
        assert v["reduction"].detected == v["pt"].detected


class TestMajorization:
    def test_bell(self):
        v = evaluate_state(bell_state()).verdicts["majorization"]
        assert v.detected and v.witness == pytest.approx(0.5, abs=1e-12)

    def test_pure_product(self):
        v = evaluate_state(product_pure(2, 3, seed=1)).verdicts["majorization"]
        assert not v.detected and abs(v.witness) <= 1e-12

    def test_maximally_mixed(self):
        assert not evaluate_state(maximally_mixed(2, 2)).verdicts["majorization"].detected


class TestEntropy:
    def test_bell(self):
        v = evaluate_state(bell_state()).verdicts["entropy"]
        assert v.detected and v.witness == pytest.approx(-math.log(2), abs=1e-12)

    def test_product_not_detected(self):
        assert not evaluate_state(product_pure(3, 4, seed=2)).verdicts["entropy"].detected

    @pytest.mark.parametrize("p,expect", [(0.9, True), (0.6, False)])
    def test_werner_boundary(self, p, expect):
        # Oracle: closed-form Werner spectra. Global eigenvalues are
        # (1+3p)/4 and three copies of (1-p)/4; marginals are I/2.
        lam = np.array([(1 + 3 * p) / 4] + [(1 - p) / 4] * 3)
        s12 = float(-(lam[lam > 0] * np.log(lam[lam > 0])).sum())
        assert (s12 - math.log(2) < 0) is expect
        assert evaluate_state(werner_state(p)).verdicts["entropy"].detected is expect


class TestRealignment:
    def test_bell(self):
        v = evaluate_state(bell_state()).verdicts["realignment"]
        assert v.detected and v.witness == pytest.approx(1.0, abs=1e-12)

    def test_pure_product_boundary_not_detected(self):
        v = evaluate_state(product_pure(2, 3, seed=3)).verdicts["realignment"]
        assert not v.detected and abs(v.witness) <= 1e-9

    def test_maximally_mixed(self):
        v = evaluate_state(maximally_mixed(2, 5)).verdicts["realignment"]
        assert not v.detected
        assert v.witness == pytest.approx(1 / math.sqrt(10) - 1, abs=1e-12)

    def test_rank_9_detection_above_average_bound_is_genuine(self):
        # 2x5 rank 9 lies above realignment_rank_bound(2, 5) = 6.5, which
        # bounds the average state only; this state's purity exceeds 1/d1^2.
        rho = sample_reduced_state(SampleSpec(2, 5, 9, 42, 2428))
        v = evaluate_state(rho).verdicts["realignment"]
        r = rho.mat.reshape(2, 5, 2, 5).transpose(0, 2, 1, 3).reshape(4, 25)
        sv = np.sqrt(np.clip(np.linalg.eigvalsh(r @ r.conj().T), 0.0, None))
        assert v.detected
        assert v.witness == pytest.approx(sv.sum() - 1.0, abs=1e-12)
        assert v.witness >= 0.01
        assert purity(rho) > 1 / 2 ** 2


class TestLogNegativity:
    def test_bell(self):
        assert evaluate_state(bell_state()).ln == pytest.approx(1.0, abs=1e-12)

    def test_separable_zero(self):
        assert evaluate_state(product_pure(2, 4, seed=4)).ln == 0.0
        assert evaluate_state(maximally_mixed(3, 3)).ln == 0.0

    def test_werner_half(self):
        # ||rho^T2||_1 = 1 + 2 |lambda_min| with a single negative eigenvalue
        expected = math.log2(1 + 2 * 0.125)
        assert evaluate_state(werner_state(0.5)).ln == pytest.approx(expected, abs=1e-12)


class TestEvaluateState:
    def test_bell_all_detected(self):
        rec = evaluate_state(bell_state())
        assert all(rec.verdicts[c].detected for c in CRITERIA)
        assert rec.ln == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_none(self):
        rec = evaluate_state(maximally_mixed(2, 3))
        assert not any(rec.verdicts[c].detected for c in CRITERIA)
        assert rec.ln == 0.0

    def test_product_pure_none(self):
        rec = evaluate_state(product_pure(2, 5, seed=5))
        assert not any(rec.verdicts[c].detected for c in CRITERIA)
        assert rec.ln == 0.0

    @pytest.mark.parametrize("trial", range(10))
    def test_matches_individual_detectors(self, trial):
        rho = random_state(3, 4, 7, seed=71, trial=trial)
        rec = evaluate_state(rho)
        ref = reference_verdicts(rho, eps=1e-10)
        for c in CRITERIA:
            assert rec.verdicts[c].detected == ref.verdicts[c].detected
            assert rec.verdicts[c].witness == pytest.approx(ref.verdicts[c].witness, abs=1e-10)
        assert rec.ln == pytest.approx(ref.ln, abs=1e-10)

    def test_witnesses_finite(self):
        rec = evaluate_state(random_state(2, 6, 12, seed=73))
        assert all(math.isfinite(v.witness) for v in rec.verdicts.values())


class TestImplications:
    @pytest.mark.parametrize("cell", [(2, 4, 5), (2, 5, 6), (3, 3, 5), (3, 5, 8)])
    def test_entropy_implies_majorization_and_reduction_implies_pt(self, cell):
        d1, d2, k = cell
        for trial in range(50):
            rec = evaluate_state(sample_reduced_state(SampleSpec(d1, d2, k, 83, trial)))
            v = rec.verdicts
            if v["entropy"].detected:
                assert v["majorization"].detected
            if v["reduction"].detected:
                assert v["pt"].detected
            assert (rec.ln > ln_threshold()) == v["pt"].detected

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
        rotated = DensityMatrix(u @ rho.mat @ u.conj().T, 3, 4, check=False)
        a, b = evaluate_state(rho), evaluate_state(rotated)
        assert abs(a.ln - b.ln) <= 1e-9
        for c in CRITERIA:
            assert a.verdicts[c].detected == b.verdicts[c].detected
            assert abs(a.verdicts[c].witness - b.verdicts[c].witness) <= 1e-9
