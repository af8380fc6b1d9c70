"""Executable invariants over freshly sampled random states.

INVARIANTS is the one statement of each checked property: it maps a name
to ``margin(cell, rho, rec, eps) -> float``, the distance of one
evaluated state from the property's boundary; ``cell`` is the (d1, d2, k)
``rho`` was drawn from and ``rec`` its evaluate_state record. A
non-negative margin means the property held; a check that does not apply
to the state returns +inf. The verdict-level checks read the record at
``eps``; the spectral checks solve their own partial transposes, as
references independent of the kernel. run_checks evaluates each sampled
chunk with one evaluate_state call and checks its states one by one.
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
    return 0.0 if ok else -1.0


def _implies(weaker, stronger):
    """The criterion ``weaker`` never fires without ``stronger``."""
    weaker, stronger = CRITERIA.index(weaker), CRITERIA.index(stronger)

    def margin(cell, rho, rec, eps):
        detected = rec.detected(eps)
        return _holds(detected[stronger] or not detected[weaker])
    return margin


def _ln_iff_pt(cell, rho, rec, eps):
    return _holds((rec.ln(eps) > 0.0) == rec.detected(eps)[PT])


# Bounds the kernel's own realignment witness, the number the CSV is built from.
def _realign_trace_norm_purity_bound(cell, rho, rec, eps):
    bound = min(rho.d1, rho.d2) * math.sqrt(purity(rho)) + 1e-9
    return bound - (rec.witness[REALIGNMENT] + 1.0)


def _pt_involution(cell, rho, rec, eps):
    d1, d2 = rho.d1, rho.d2
    back = partial_transpose(rho, 1).reshape(d1, d2, d1, d2).transpose(2, 1, 0, 3)
    return 1e-14 - np.abs(back.reshape(rho.mat.shape) - rho.mat).max()


def _pt_side_spectra_match(cell, rho, rec, eps):
    eigs1 = np.linalg.eigvalsh(partial_transpose(rho, 1))
    eigs2 = np.linalg.eigvalsh(partial_transpose(rho, 2))
    return 1e-10 - np.abs(eigs1 - eigs2).max()


def _realign_frobenius_preserved(cell, rho, rec, eps):
    return 1e-12 - abs(np.linalg.norm(realign(rho)) - np.linalg.norm(rho.mat))


def numerical_rank(rho):
    """Number of eigenvalues above RANK_TOL."""
    return int((np.linalg.eigvalsh(rho.mat) > RANK_TOL).sum())


def _rank_ceiling(cell, rho, rec, eps):
    return cell[2] - numerical_rank(rho)


# Proposition 3: in 2 x d the reduction and PT criteria are equivalent,
# because I (x) rho_2 - rho and rho^T1 share their spectrum.
def _prop3_verdict_agreement(cell, rho, rec, eps):
    if rho.d1 != 2:
        return math.inf
    detected = rec.detected(eps)
    return _holds(detected[REDUCTION] == detected[PT])


def _prop3_spectral_match(cell, rho, rec, eps):
    if rho.d1 != 2:
        return math.inf
    red = np.kron(np.eye(2), partial_trace(rho, 1)) - rho.mat
    pt_eigs = np.linalg.eigvalsh(partial_transpose(rho, 1))
    return 1e-9 - np.abs(np.linalg.eigvalsh(red) - pt_eigs).max()


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
}


def run_checks(samples, master_seed, eps=EPS):
    """Fold INVARIANTS over ``samples`` states, split over ranks 2,
    ceil(n/2) and n of each DEFAULT_GRID cell, the first ``samples % 12``
    cells taking one state more; one CheckResult per invariant with its
    worst margin. A margin that is not >= 0, NaN included, is a
    violation."""
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
            for rho, rec in zip(chunk, evaluate_state(chunk)):
                for name, margin in INVARIANTS.items():
                    m = float(margin(cell, rho, rec, eps))
                    worst[name] = min(worst[name], m)
                    violations[name] += not m >= 0
    return [
        CheckResult(name, violations[name] == 0, worst[name],
                    f"{violations[name]} violation(s) over {samples} states")
        for name in INVARIANTS
    ]
