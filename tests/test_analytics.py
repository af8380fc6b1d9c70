import math
import random

import numpy as np
import pytest

from entdetect import (
    CRITERIA,
    aggregate,
    average_purity,
    entropy_rank_threshold,
    page_entropies,
    realignment_rank_bound,
    run_cell,
)
from entdetect import analytics
from entdetect.criteria import SIGNS
from conftest import as_records

CELL = (2, 3, 2)


def make_record(tn, detected):
    """``(tn, witness)`` of a state with PT trace norm ``tn`` on which the
    criteria marked True in ``detected`` fire: their witness is a unit
    past the threshold."""
    return tn, tuple(s if detected.get(c) else 0.0 for c, s in zip(CRITERIA, SIGNS))


def all_detected(tn):
    return make_record(tn, {c: True for c in CRITERIA})


class TestAggregate:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            aggregate(as_records([]), CELL)

    @pytest.mark.parametrize(
        "eps, cell", [(math.nan, CELL), (-1.0, CELL), (1e-10, (2, 5, 99))],
        ids=["eps-nan", "eps-negative", "rank-past-d1d2"],
    )
    def test_rejects_bad_eps_and_cell(self, eps, cell):
        with pytest.raises(ValueError):
            aggregate(as_records([all_detected(2.0)]), cell, eps)

    def test_all_detected_fraction_one(self):
        stats = aggregate(as_records([all_detected(2.0), all_detected(4.0)]), CELL)
        assert (stats.d1, stats.d2, stats.k) == CELL
        for c in CRITERIA:
            cs = stats.per_criterion[c]
            assert cs.fraction == 1.0
            assert cs.mean_ln == 1.5
            assert cs.min_ln == 1.0

    def test_no_detection_gives_nulls_not_zero(self):
        recs = [make_record(2.0, {"pt": True}), make_record(1.5, {"pt": True})]
        stats = aggregate(as_records(recs), CELL)
        cs = stats.per_criterion["entropy"]
        assert cs.fraction == 0.0
        assert cs.mean_ln is None and cs.min_ln is None

    def test_zero_ln_records_excluded_from_denominator(self):
        recs = [
            all_detected(2.0),
            make_record(1.0, {}),  # PPT-like sample: not in the population
        ]
        stats = aggregate(as_records(recs), CELL)
        assert stats.n_total == 2
        assert stats.n_npt == 1
        assert stats.per_criterion["pt"].fraction == 1.0

    def test_all_ppt_population_undefined(self):
        stats = aggregate(as_records([make_record(1.0, {}), make_record(1.0, {})]), CELL)
        for c in CRITERIA:
            assert stats.per_criterion[c].fraction is None

    def test_stderr_is_bernoulli(self):
        recs = [all_detected(2.0)] * 3 + [make_record(1.5, {"pt": True})]
        stats = aggregate(as_records(recs), CELL)
        cs = stats.per_criterion["majorization"]
        assert cs.fraction == 0.75
        assert cs.fraction_stderr == pytest.approx(math.sqrt(0.75 * 0.25 / 4))

    def test_order_independence(self):
        rng = random.Random(5)
        recs = [
            make_record(rng.uniform(1.01, 2.0), {c: rng.random() < 0.5 for c in CRITERIA} | {"pt": True})
            for _ in range(300)
        ]
        a = aggregate(as_records(recs), CELL)
        shuffled = recs[:]
        rng.shuffle(shuffled)
        b = aggregate(as_records(shuffled), CELL)
        for c in CRITERIA:
            ca, cb = a.per_criterion[c], b.per_criterion[c]
            assert ca == cb  # exact equality, fsum accumulation

    def test_min_matches_brute_force_rescan(self):
        recs = run_cell(2, 4, 4, 300, master_seed=3)
        stats = aggregate(recs, (2, 4, 4))
        lns, fired = recs.ln().tolist(), recs.detected().tolist()
        for i, c in enumerate(CRITERIA):
            detected = [ln for ln, f in zip(lns, fired) if ln > 0 and f[i]]
            cs = stats.per_criterion[c]
            if detected:
                assert cs.min_ln == min(detected)
                assert cs.mean_ln == pytest.approx(sum(detected) / len(detected))
            else:
                assert cs.min_ln is None

    def test_fraction_monotone_under_inclusion(self):
        recs = run_cell(3, 3, 5, 400, master_seed=13)
        stats = aggregate(recs, (3, 3, 5))
        per = stats.per_criterion
        assert per["majorization"].fraction >= per["entropy"].fraction
        assert per["pt"].fraction >= per["reduction"].fraction
        assert per["pt"].fraction == 1.0

    # Majorization detections in the 2x5 k=8 records at each eps. The
    # records are evaluated once; only aggregate's eps differs. No
    # undetected witness lies in [0, 1e-10], so eps 0 counts as 1e-10 does.
    MAJORIZATION_DETECTED = {0.0: 436, 1e-10: 436, 1e-2: 287}

    @pytest.mark.parametrize("eps", sorted(MAJORIZATION_DETECTED))
    def test_eps_applied_once(self, records_2x5_k8, eps):
        stats = aggregate(records_2x5_k8, (2, 5, 8), eps)
        # The criteria docstring's comparisons, written out per criterion.
        pt, red, maj, ent, rl = zip(*records_2x5_k8.witness.tolist())
        fires = {
            "pt": [w < -eps for w in pt],
            "reduction": [w < -eps for w in red],
            "majorization": [w > eps for w in maj],
            "entropy": [w < -eps for w in ent],
            "realignment": [w > eps for w in rl],
        }
        tns = records_2x5_k8.tn.tolist()
        npt = [tn > 1.0 + 2.0 * eps for tn in tns]
        assert stats.n_total == len(records_2x5_k8)
        assert stats.n_npt == sum(fires["pt"])
        for c in CRITERIA:
            lns = [
                float(np.log2(tn))
                for tn, in_population, fired in zip(tns, npt, fires[c])
                if in_population and fired
            ]
            cs = stats.per_criterion[c]
            assert cs.n_detected == len(lns), c
            assert cs.fraction == len(lns) / sum(npt), c
            assert cs.mean_ln == (math.fsum(lns) / len(lns) if lns else None), c
            assert cs.min_ln == (min(lns) if lns else None), c
        assert stats.per_criterion["majorization"].n_detected == (
            self.MAJORIZATION_DETECTED[eps]
        )

    def test_counts_are_python_ints(self, records_2x5_k8):
        # harness._fmt prints ints with str and everything else through
        # .6g, so a numpy count of 10**6 would print as 1e+06
        stats = aggregate(records_2x5_k8, (2, 5, 8))
        assert type(stats.n_total) is int and type(stats.n_npt) is int
        for c in CRITERIA:
            cs = stats.per_criterion[c]
            assert type(cs.n_detected) is int, c
            assert all(x is None or type(x) is float for x in (
                cs.fraction, cs.fraction_stderr, cs.mean_ln, cs.min_ln)), c


class TestPageFormulas:
    def test_examples(self):
        # Page's mean H(mn) - H(n) - (m-1)/(2n) over the cut m x n, m <= n:
        # 2 x 50 for rho_1, 5 x 20 for rho_2, 10 x 10 for rho.
        s1, s2, s12 = page_entropies(2, 5, 10)
        assert (s1, s2, s12) == pytest.approx((0.678172179, 1.489637860, 1.808409264), abs=1e-9)

    def test_pure_states(self):
        # k = 1: rho is pure, and its marginals share one spectrum
        s1, s2, s12 = page_entropies(2, 8, 1)
        assert s12 == 0.0
        assert s1 == s2 == pytest.approx(0.600372, abs=1e-6)

    def test_symmetric_dims(self):
        for k in range(1, 10):
            s1, s2, _ = page_entropies(3, 3, k)
            assert s1 == s2

    def test_prop1_proof_facts(self):
        # s12 - s2 vanishes at k = d2 and increases on (d2, d1*d2);
        # s2 - s1 >= 0 for d2 >= d1 and is non-decreasing in k.
        for d1, d2 in [(2, 5), (3, 4), (3, 7), (4, 9)]:
            _, s2, s12 = page_entropies(d1, d2, d2)
            assert abs(s12 - s2) <= 1e-12
            prev = 0.0
            for k in range(d2, d1 * d2 + 1):
                s1, s2, s12 = page_entropies(d1, d2, k)
                diff = s12 - s2
                assert diff >= prev - 1e-12
                prev = diff
                assert s2 - s1 >= -1e-12
            gaps = [
                page_entropies(d1, d2, k)[1] - page_entropies(d1, d2, k)[0]
                for k in range(2, d1 * d2 + 1)
            ]
            assert all(b >= a - 1e-12 for a, b in zip(gaps, gaps[1:]))

    def test_harmonic_form_equals_the_term_by_term_sum(self):
        # H(mn) - H(n) - (m-1)/(2n), each H an fsum below
        # HARMONIC_SERIES_FROM and the Euler-Maclaurin series from it on,
        # against Page's sum written out term by term: every cut up to
        # 40 x 40, across the switch, and the largest cuts of bounds 20x20.
        cuts = [(m, n) for m in range(1, 41) for n in range(m, 41)] + [(20, 8000), (400, 400)]
        for m, n in cuts:
            page = math.fsum(1.0 / j for j in range(n + 1, m * n + 1)) - (m - 1) / (2.0 * n)
            assert abs(analytics._page_entropy(m, n) - page) <= 1e-12, (m, n)
            assert analytics._page_entropy(n, m) == analytics._page_entropy(m, n)

    def test_invalid_cells(self):
        with pytest.raises(ValueError):
            page_entropies(1, 5, 2)
        with pytest.raises(ValueError):
            page_entropies(2, 5, 11)


class TestThresholds:
    def test_entropy_rank_threshold(self):
        assert entropy_rank_threshold(2, 5) == 5
        assert entropy_rank_threshold(3, 3) == 3
        assert entropy_rank_threshold(4, 9) == 9

    def test_realignment_rank_bound(self):
        assert realignment_rank_bound(2, 5) == pytest.approx(39 / 6)
        assert realignment_rank_bound(3, 4) == pytest.approx(107 / 3)
        assert realignment_rank_bound(3, 4) > 12  # never binding for 3x4
        assert realignment_rank_bound(3, 3) == math.inf
        assert realignment_rank_bound(5, 2) == realignment_rank_bound(2, 5)

    def test_average_purity(self):
        assert average_purity(2, 2, 1) == 1.0
        assert average_purity(2, 6, 2) == pytest.approx(14 / 25)
        assert average_purity(2, 5, 4) == pytest.approx(14 / 41)
        assert 0 < average_purity(4, 4, 16) <= 1
