"""Rank-1 closed forms: an oracle for evaluate_state that shares no code
with linalg or criteria.

At k = 1, rho = |psi><psi|, and every number the kernel returns is a
closed form of psi's Schmidt coefficients s_1 >= s_2 >= ... (lambda_i =
s_i^2), which come from one SVD of psi reshaped to d1 x d2:

* tn = (sum s_i)^2, the trace norm of the partial transpose, so LN = 2
  log2 sum s_i;
* pt = -s_1 s_2, the product of the two largest;
* reduction = the root x < 0 of sum lambda_i / (lambda_i - x) = 1, i.e.
  the least eigenvalue of diag(lambda) - s s^T;
* majorization = 1 - lambda_1;
* entropy = -S(lambda), in nats;
* realignment = (sum s_i)^2 - 1.

The test fails on a kernel that takes the majorization prefixes from the
wrong end of the spectra, transposes the sides of the realignment
reshape, or partially transposes the wrong index pair. It cannot see a
kernel that drops one of the two reduction operators: at k = 1 both
share their least eigenvalue.
"""

import numpy as np
import pytest

from entdetect import CRITERIA, DensityMatrix, evaluate_state

TRIALS = 300
# Over these cells and draws the largest deviation is 5.3e-15 (realignment;
# tn 4.4e-15), so this leaves a margin of ~19x.
TOLERANCE = 1e-13
CELLS = [(2, 2), (2, 5), (3, 4), (3, 5), (4, 4), (2, 18), (6, 6)]


def closed_forms(psi, d1, d2):
    """``(tn, witness)`` of each |psi><psi| of a ``(B, d1*d2)`` array of
    unit vectors: a ``(B,)`` and a ``(B, 5)`` array, in CRITERIA order."""
    s = np.linalg.svd(psi.reshape(-1, d1, d2), compute_uv=False)
    lam = s ** 2
    red = np.linalg.eigvalsh(lam[:, :, None] * np.eye(len(lam[0]))
                             - s[:, :, None] * s[:, None, :])[:, 0]
    entropy = -(lam * np.log(lam)).sum(axis=1)
    tn = s.sum(axis=1) ** 2
    witness = np.stack((-s[:, 0] * s[:, 1], red, 1.0 - lam[:, 0], -entropy, tn - 1.0), axis=1)
    return tn, witness


@pytest.mark.parametrize("d1, d2", CELLS)
def test_rank_one_states_match_closed_forms(d1, d2):
    rng = np.random.default_rng(42)
    n = d1 * d2
    psi = rng.standard_normal((TRIALS, n)) + 1j * rng.standard_normal((TRIALS, n))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    recs = evaluate_state(DensityMatrix(psi[:, :, None] * psi[:, None, :].conj(), d1, d2))
    tn, witness = closed_forms(psi, d1, d2)
    assert recs.witness.shape == witness.shape == (TRIALS, len(CRITERIA))
    assert np.abs(recs.tn - tn).max() <= TOLERANCE
    deviation = np.abs(recs.witness - witness).max(axis=0)
    assert (deviation <= TOLERANCE).all(), dict(zip(CRITERIA, deviation.tolist()))
