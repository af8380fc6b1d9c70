"""Property tests: the invariants of verify.INVARIANTS and of the marginals
over random cells (d1, d2 in 2..4, any rank) and seeds."""

import numpy as np
from hypothesis import given, settings, strategies as st

from entdetect import evaluate_state, partial_trace, sample_reduced_state
from entdetect.criteria import EPS
from entdetect.sampling import sample_chunks
from entdetect.verify import INVARIANTS


@st.composite
def trials(draw):
    """(d1, d2, k, master_seed) of one trial; its index is 0."""
    d1 = draw(st.integers(2, 4))
    d2 = draw(st.integers(2, 4))
    k = draw(st.integers(1, d1 * d2))
    return d1, d2, k, draw(st.integers(0, 2 ** 64 - 1))


PROPERTY_SETTINGS = settings(
    derandomize=True, deadline=None, max_examples=50, database=None
)


@PROPERTY_SETTINGS
@given(trials())
def test_hierarchy_invariants(trial):
    [chunk] = sample_chunks(*trial, 0, 1)
    recs = evaluate_state(chunk)
    for name, margin in INVARIANTS.items():
        assert np.all(margin(trial[:3], chunk, recs, EPS) >= 0), name


@PROPERTY_SETTINGS
@given(trials())
def test_marginals_exactly_hermitian_unit_trace(trial):
    # evaluate_state relies on this instead of re-checking each marginal.
    rho = sample_reduced_state(*trial)
    for side, d in ((2, rho.d1), (1, rho.d2)):
        m = partial_trace(rho, side)
        assert isinstance(m, np.ndarray) and m.shape == (d, d)
        assert np.array_equal(m, m.conj().T)
        assert abs(np.trace(m).real - 1.0) <= 1e-12
