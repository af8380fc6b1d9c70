"""Executable invariants over freshly sampled random states.

INVARIANTS is the one statement of each checked property: it maps a name
to ``margin(cell, rho, recs, eps)``, each state's distance from the
property's boundary; ``rho`` is a stacked DensityMatrix drawn from cell
(d1, d2, k) and ``recs`` its evaluate_state Records. A non-negative
margin means the property held; a check that does not apply to the cell
returns the scalar +inf. The verdict-level checks read the records at
``eps``; the spectral checks solve their own partial transposes, as
references independent of the kernel. run_checks makes one
evaluate_state call and one call per invariant for each sampled chunk.
"""

import math
from dataclasses import dataclass

import numpy as np

from .criteria import CRITERIA, EPS, check_eps, evaluate_state
from .linalg import partial_trace, partial_transpose, purity, realign
from .sampling import check_samples, check_seed, sample_chunks

DEFAULT_GRID = ((2, 4), (2, 5), (3, 3), (3, 5))
RANK_TOL = 1e-10

PT, REDUCTION, REALIGNMENT = map(CRITERIA.index, ("pt", "reduction", "realignment"))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    margin: float
    detail: str = ""


def _holds(ok):
    return np.where(ok, 0.0, -1.0)


def _implies(weaker, stronger):
    """The criterion ``weaker`` never fires without ``stronger``."""
    weaker, stronger = CRITERIA.index(weaker), CRITERIA.index(stronger)

    def margin(cell, rho, recs, eps):
        detected = recs.detected(eps)
        return _holds(detected[:, stronger] | ~detected[:, weaker])
    return margin


def _ln_iff_pt(cell, rho, recs, eps):
    return _holds((recs.ln(eps) > 0.0) == recs.detected(eps)[:, PT])


# Bounds the kernel's own realignment witness, the number the CSV is built from.
def _realign_trace_norm_purity_bound(cell, rho, recs, eps):
    bound = min(rho.d1, rho.d2) * np.sqrt(purity(rho)) + 1e-9
    return bound - (recs.witness[:, REALIGNMENT] + 1.0)


def _pt_involution(cell, rho, recs, eps):
    back = partial_transpose(rho, 1).reshape(-1, rho.d1, rho.d2, rho.d1, rho.d2).swapaxes(1, 3)
    return 1e-14 - np.abs(back.reshape(rho.mat.shape) - rho.mat).max(axis=(-2, -1))


def _pt_side_spectra_match(cell, rho, recs, eps):
    eigs1 = np.linalg.eigvalsh(partial_transpose(rho, 1))
    eigs2 = np.linalg.eigvalsh(partial_transpose(rho, 2))
    return 1e-10 - np.abs(eigs1 - eigs2).max(axis=-1)


def _realign_frobenius_preserved(cell, rho, recs, eps):
    norms = [np.linalg.norm(m, axis=(-2, -1)) for m in (realign(rho), rho.mat)]
    return 1e-12 - abs(norms[0] - norms[1])


def numerical_rank(rho):
    """Number of eigenvalues above RANK_TOL, of each state of a stack."""
    return (np.linalg.eigvalsh(rho.mat) > RANK_TOL).sum(axis=-1)


def _rank_ceiling(cell, rho, recs, eps):
    return cell[2] - numerical_rank(rho)


# Proposition 3: in 2 x d the reduction and PT criteria are equivalent,
# because I (x) rho_2 - rho and rho^T1 share their spectrum.
def _prop3_verdict_agreement(cell, rho, recs, eps):
    if rho.d1 != 2:
        return math.inf
    detected = recs.detected(eps)
    return _holds(detected[:, REDUCTION] == detected[:, PT])


def _prop3_spectral_match(cell, rho, recs, eps):
    if rho.d1 != 2:
        return math.inf
    red = np.kron(np.eye(2), partial_trace(rho, 1)) - rho.mat
    pt_eigs = np.linalg.eigvalsh(partial_transpose(rho, 1))
    return 1e-9 - np.abs(np.linalg.eigvalsh(red) - pt_eigs).max(axis=-1)


# A separable state's rank is at least each marginal's (Horodecki,
# Lewenstein, Vidal & Cirac 2000), and a state of lower rank than a
# marginal violates reduction (Horodecki, Smolin, Terhal & Thapliyal
# 2003). A Haar rank-k state's marginals have rank min(d_i, d_j k), so
# reduction fires on every state below rank max(d1, d2).
def _reduction_below_local_rank(cell, rho, recs, eps):
    if cell[2] >= max(rho.d1, rho.d2):
        return math.inf
    return -recs.witness[:, REDUCTION] - eps


INVARIANTS = {
    "entropy_implies_majorization": _implies("entropy", "majorization"),
    "reduction_implies_pt": _implies("reduction", "pt"),
    "majorization_implies_reduction": _implies("majorization", "reduction"),
    "ln_iff_pt": _ln_iff_pt,
    "realign_trace_norm_purity_bound": _realign_trace_norm_purity_bound,
    "pt_involution": _pt_involution,
    "pt_side_spectra_match": _pt_side_spectra_match,
    "realign_frobenius_preserved": _realign_frobenius_preserved,
    "rank_ceiling": _rank_ceiling,
    "prop3_verdict_agreement": _prop3_verdict_agreement,
    "prop3_spectral_match": _prop3_spectral_match,
    "reduction_below_local_rank": _reduction_below_local_rank,
}


def run_checks(samples, master_seed, eps=EPS):
    """Fold INVARIANTS over ``samples`` states, split over ranks 2,
    ceil(n/2) and n of each DEFAULT_GRID cell, the first ``samples % 12``
    cells taking one state more; one CheckResult per invariant with its
    worst margin, NaNs aside. A margin that is not >= 0, NaN included, is
    a violation."""
    check_samples(samples)
    check_seed(master_seed)
    check_eps(eps)
    cells = [(d1, d2, k) for d1, d2 in DEFAULT_GRID
             for k in (2, (d1 * d2 + 1) // 2, d1 * d2)]
    worst = dict.fromkeys(INVARIANTS, math.inf)
    violations = dict.fromkeys(INVARIANTS, 0)
    share, extra = divmod(samples, len(cells))
    for i, cell in enumerate(cells):
        for chunk in sample_chunks(*cell, master_seed, 0, share + (i < extra)):
            recs = evaluate_state(chunk)
            for name, margin in INVARIANTS.items():
                m = np.broadcast_to(margin(cell, chunk, recs, eps), len(recs)).astype(float)
                worst[name] = float(np.fmin.reduce(m, initial=worst[name]))
                violations[name] += int(np.count_nonzero(~(m >= 0)))
    return [
        CheckResult(name, violations[name] == 0, worst[name],
                    f"{violations[name]} violation(s) over {samples} states")
        for name in INVARIANTS
    ]
