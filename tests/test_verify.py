"""The invariant table can fail: each verdict-level invariant, applied to
hand-built records that violate and that satisfy it, has a margin of the
matching sign."""

import math

import pytest

from entdetect import CRITERIA, StateRecord, Verdict
from entdetect.criteria import EPS
from entdetect.verify import INVARIANTS
from conftest import maximally_mixed


def record(ln, *detected):
    return StateRecord(ln, {c: Verdict(c in detected, 0.0) for c in CRITERIA})


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
])
def test_verdict_invariant_margin_sign(name, rec, holds):
    margin = INVARIANTS[name](maximally_mixed(2, 3), rec, EPS)
    assert (margin >= 0) is holds


def test_prop3_does_not_apply_beyond_qubit_qudit():
    rho = maximally_mixed(3, 2)
    for name in ("prop3_verdict_agreement", "prop3_spectral_match"):
        assert INVARIANTS[name](rho, record(0.5, "pt"), EPS) == math.inf
