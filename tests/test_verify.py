"""The invariant table can fail: each verdict-level invariant, applied to
hand-built records that violate and that satisfy it, has a margin of the
matching sign. Each margin is a column function, one value per state of
a stack, and run_checks folds one call per invariant per chunk."""

import math

import numpy as np
import pytest

from entdetect import CRITERIA, Records, evaluate_state, verify
from entdetect.criteria import EPS, SIGNS
from entdetect.sampling import sample_chunks
from entdetect.verify import INVARIANTS, REALIGNMENT, CheckResult, numerical_rank, run_checks
from conftest import as_records, maximally_mixed, random_state

CELL = (2, 3, 6)


def record(ln, *detected):
    """Records of one state with LN ``ln`` on which exactly the
    ``detected`` criteria fire: their witness is a unit past the
    threshold, the others are 0."""
    return as_records([(2.0 ** ln, [s if c in detected else 0.0 for c, s in zip(CRITERIA, SIGNS)])])


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
    [margin] = INVARIANTS[name](CELL, maximally_mixed(2, 3), rec, EPS)
    assert bool(margin >= 0) is holds


def test_purity_bound_reads_the_records_realignment_witness():
    rho = random_state(2, 3, 2, seed=5)
    recs = evaluate_state(rho)
    margin = INVARIANTS["realign_trace_norm_purity_bound"]
    [held] = margin(CELL, rho, recs, EPS)
    assert held >= 0
    witness = recs.witness.copy()
    witness[:, REALIGNMENT] += 2 * held + 1e-6
    [broken] = margin(CELL, rho, Records(recs.tn, witness), EPS)
    assert broken < 0


def test_prop3_does_not_apply_beyond_qubit_qudit():
    # a sampled 3 x 4 chunk and its own Records: each margin is the scalar
    # +inf, which run_checks broadcasts over the chunk
    cell = (3, 4, 5)
    chunk = next(sample_chunks(*cell, 11, 0, 28))
    recs = evaluate_state(chunk)
    assert len(recs) == len(chunk) > 1
    for name in ("prop3_verdict_agreement", "prop3_spectral_match"):
        margin = INVARIANTS[name](cell, chunk, recs, EPS)
        assert type(margin) is float and margin == math.inf, name


@pytest.mark.parametrize("samples", [0, -5])
def test_run_checks_rejects_a_sample_count_below_one(samples):
    with pytest.raises(ValueError, match="sample count"):
        run_checks(samples=samples, master_seed=2024)


def test_run_checks_rejects_a_sample_count_past_2_32():
    with pytest.raises(ValueError, match="sample count"):
        run_checks(samples=2 ** 32 + 1, master_seed=2024)


@pytest.mark.parametrize("samples", [5, 13])
def test_run_checks_checks_exactly_the_sample_count(samples, monkeypatch):
    # 12 cells: 5 gives seven cells no state, 13 gives the first cell two;
    # each call evaluates one sampler chunk, a stack of states
    evaluated = []

    def counted(rho):
        evaluated.append(len(rho))
        return evaluate_state(rho)

    monkeypatch.setattr(verify, "evaluate_state", counted)
    for result in run_checks(samples=samples, master_seed=2024):
        assert result.detail.endswith(f"over {samples} states"), result
    assert sum(evaluated) == samples


# The worst margins of run_checks(1200, 42), the same at eps 1e-10 and 0,
# as the per-state fold computed them before the margins took columns.
# reduction_below_local_rank is a witness less eps, so it is pinned per eps.
# The realignment bound's worst state is a 2x5 k=2 state, whose witness
# is solved on its support stand-in (2 x 4), 2**-52 below the 10 x 10
# path's 0x1.de8867a30e000p-8.
WORST_1200_42 = {
    "entropy_implies_majorization": "0x0.0p+0",
    "reduction_implies_pt": "0x0.0p+0",
    "majorization_implies_reduction": "0x0.0p+0",
    "ln_iff_pt": "0x0.0p+0",
    "realign_trace_norm_purity_bound": "0x1.de8867a30df00p-8",
    "pt_involution": "0x1.6849b86a12b9bp-47",
    "pt_side_spectra_match": "0x1.b7cdfd9d7bdbbp-34",
    "realign_frobenius_preserved": "0x1.19699812dea11p-40",
    "rank_ceiling": "0x0.0p+0",
    "prop3_verdict_agreement": "0x0.0p+0",
    "prop3_spectral_match": "0x1.12e0ae826d695p-30",
}
REDUCTION_BELOW_LOCAL_RANK_1200_42 = {EPS: "0x1.06c1df6bfe856p-3", 0.0: "0x1.06c1df6f6e216p-3"}


@pytest.mark.parametrize("eps", [EPS, 0.0])
def test_run_checks_worst_margins_are_pinned(eps):
    results = run_checks(samples=1200, master_seed=42, eps=eps)
    assert {r.name: r.margin.hex() for r in results} == WORST_1200_42 | {
        "reduction_below_local_rank": REDUCTION_BELOW_LOCAL_RANK_1200_42[eps],
    }
    assert all(r.passed for r in results)


@pytest.mark.parametrize("cell,detected,holds", [
    ((2, 5, 4), ("pt", "reduction"), True),
    ((2, 5, 4), ("pt",), False),
    ((3, 3, 2), ("pt",), False),
    ((2, 5, 5), ("pt",), True),   # rank max(d1, d2): does not apply
    ((3, 3, 3), (), True),
])
def test_reduction_below_local_rank_margin_sign(cell, detected, holds):
    rho = maximally_mixed(*cell[:2])
    [margin] = np.broadcast_to(
        INVARIANTS["reduction_below_local_rank"](cell, rho, record(0.5, *detected), EPS), 1
    )
    assert bool(margin >= 0) is holds


def _column(margin, cell, rho, recs):
    """A margin's values on the states of ``recs``, a scalar broadcast."""
    return np.broadcast_to(margin(cell, rho, recs, EPS), len(recs)).astype(float)


@pytest.mark.parametrize("cell", [(2, 5, 3), (3, 3, 5), (3, 5, 15)])
def test_chunk_margins_are_each_states_margins_alone(cell):
    chunk = next(sample_chunks(*cell, 11, 0, 24))
    recs = evaluate_state(chunk)
    alone = [next(sample_chunks(*cell, 11, i, i + 1)) for i in range(len(chunk))]
    assert [a.mat.tobytes() for a in alone] == [mat[None].tobytes() for mat in chunk.mat]
    for name, margin in INVARIANTS.items():
        each = [_column(margin, cell, a, evaluate_state(a)) for a in alone]
        assert _column(margin, cell, chunk, recs).tobytes() == np.concatenate(each).tobytes(), name
    assert numerical_rank(chunk).tolist() == [numerical_rank(a).item() for a in alone]


def test_run_checks_calls_each_margin_once_per_chunk(monkeypatch):
    # 146 states per cell: one chunk in the 2 x d and 3 x 3 cells, whose
    # chunks hold 256, and two in 3 x 5, whose chunks hold 145
    chunks, calls = [], {name: [] for name in INVARIANTS}

    def evaluated(rho):
        chunks.append(len(rho))
        return evaluate_state(rho)

    def counted(name, margin):
        def counting(cell, rho, recs, eps):
            calls[name].append(len(recs))
            return margin(cell, rho, recs, eps)
        return counting

    monkeypatch.setattr(verify, "evaluate_state", evaluated)
    monkeypatch.setattr(verify, "INVARIANTS", {n: counted(n, m) for n, m in INVARIANTS.items()})
    assert all(r.passed for r in run_checks(samples=1752, master_seed=2024))
    assert sum(chunks) == 1752 and len(chunks) > 12
    assert calls == {name: chunks for name in INVARIANTS}


def test_a_nan_margin_is_a_violation_and_never_the_worst(monkeypatch):
    calls = []

    def one_nan(cell, rho, recs, eps):
        m = np.full(len(recs), 0.25)
        if not calls:
            m[len(m) // 2] = np.nan
        calls.append(len(recs))
        return m

    monkeypatch.setattr(verify, "INVARIANTS", {"one_nan": one_nan})
    [result] = run_checks(samples=50, master_seed=2024)
    assert result == CheckResult("one_nan", False, 0.25, "1 violation(s) over 50 states")
    assert sum(calls) == 50
