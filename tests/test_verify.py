"""The invariant table can fail: each verdict-level invariant, applied to
hand-built records that violate and that satisfy it, has a margin of the
matching sign."""

import math

import pytest

from entdetect import CRITERIA, StateRecord, evaluate_state, verify
from entdetect.criteria import EPS, SIGNS
from entdetect.verify import INVARIANTS, REALIGNMENT, run_checks
from conftest import maximally_mixed, random_state

CELL = (2, 3, 6)


def record(ln, *detected):
    """A record with LN ``ln`` on which exactly the ``detected`` criteria
    fire: their witness is a unit past the threshold, the others are 0."""
    witness = tuple(s if c in detected else 0.0 for c, s in zip(CRITERIA, SIGNS))
    return StateRecord(2.0 ** ln, witness)


@pytest.mark.parametrize("name,rec,holds", [
    ("entropy_implies_majorization", record(0.5, "pt", "entropy"), False),
    ("entropy_implies_majorization", record(0.5, "pt", "entropy", "majorization"), True),
    ("entropy_implies_majorization", record(0.5, "pt", "majorization"), True),
    ("reduction_implies_pt", record(0.0, "reduction"), False),
    ("reduction_implies_pt", record(0.5, "reduction", "pt"), True),
    ("reduction_implies_pt", record(0.5, "pt"), True),
    ("ln_iff_pt", record(0.5), False),
    ("ln_iff_pt", record(0.0, "pt"), False),
    ("ln_iff_pt", record(0.5, "pt"), True),
    ("ln_iff_pt", record(0.0), True),
    ("prop3_verdict_agreement", record(0.5, "pt"), False),
    ("prop3_verdict_agreement", record(0.0, "reduction"), False),
    ("prop3_verdict_agreement", record(0.5, "pt", "reduction"), True),
    ("prop3_verdict_agreement", record(0.0), True),
    ("majorization_implies_reduction", record(0.5, "pt", "majorization"), False),
    ("majorization_implies_reduction", record(0.5, "pt", "reduction", "majorization"), True),
])
def test_verdict_invariant_margin_sign(name, rec, holds):
    margin = INVARIANTS[name](CELL, maximally_mixed(2, 3), rec, EPS)
    assert (margin >= 0) is holds


def test_purity_bound_reads_the_records_realignment_witness():
    rho = random_state(2, 3, 2, seed=5)
    rec = evaluate_state(rho)
    margin = INVARIANTS["realign_trace_norm_purity_bound"]
    assert margin(CELL, rho, rec, EPS) >= 0
    witness = list(rec.witness)
    witness[REALIGNMENT] += 2 * margin(CELL, rho, rec, EPS) + 1e-6
    assert margin(CELL, rho, rec._replace(witness=tuple(witness)), EPS) < 0


def test_prop3_does_not_apply_beyond_qubit_qudit():
    rho = maximally_mixed(3, 2)
    for name in ("prop3_verdict_agreement", "prop3_spectral_match"):
        assert INVARIANTS[name](CELL, rho, record(0.5, "pt"), EPS) == math.inf


@pytest.mark.parametrize("samples", [0, -5])
def test_run_checks_rejects_a_sample_count_below_one(samples):
    with pytest.raises(ValueError, match="sample count"):
        run_checks(samples=samples, master_seed=2024)


def test_run_checks_rejects_a_sample_count_past_2_32():
    with pytest.raises(ValueError, match="sample count"):
        run_checks(samples=2 ** 32 + 1, master_seed=2024)


@pytest.mark.parametrize("samples", [5, 13])
def test_run_checks_checks_exactly_the_sample_count(samples, monkeypatch):
    # 12 cells: 5 gives seven cells no state, 13 gives the first cell two
    evaluated = []

    def counted(rho):
        evaluated.append(rho)
        return evaluate_state(rho)

    monkeypatch.setattr(verify, "evaluate_state", counted)
    for result in run_checks(samples=samples, master_seed=2024):
        assert result.detail.endswith(f"over {samples} states"), result
    assert len(evaluated) == samples
