"""Executable invariants over freshly sampled random states.

INVARIANTS is the one statement of each checked property: it maps a name
to ``margin(spec, rho, rec, eps) -> float``, the distance of one
evaluated state from the property's boundary; ``spec`` is the SampleSpec
``rho`` was drawn from and ``rec`` its evaluate_state record. A
non-negative margin means the property held; a check that does not apply
to the state returns +inf. The verdict-level checks read the record at
``eps``; the spectral checks solve their own partial transposes, as
references independent of the kernel.
"""

import math
from dataclasses import dataclass

import numpy as np

from .criteria import CRITERIA, EPS, check_eps, evaluate_state
from .linalg import partial_trace, partial_transpose, purity, realign
from .sampling import SampleSpec, numerical_rank, sample_states

DEFAULT_GRID = ((2, 4), (2, 5), (3, 3), (3, 5))

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

    def margin(spec, rho, rec, eps):
        detected = rec.detected(eps)
        return _holds(detected[stronger] or not detected[weaker])
    return margin


def _ln_iff_pt(spec, rho, rec, eps):
    return _holds((rec.ln(eps) > 0.0) == rec.detected(eps)[PT])


# Bounds the kernel's own realignment witness, the number the CSV is built from.
def _realign_trace_norm_purity_bound(spec, rho, rec, eps):
    bound = min(rho.d1, rho.d2) * math.sqrt(purity(rho)) + 1e-9
    return bound - (rec.witness[REALIGNMENT] + 1.0)


def _pt_involution(spec, rho, rec, eps):
    d1, d2 = rho.d1, rho.d2
    back = partial_transpose(rho, 1).reshape(d1, d2, d1, d2).transpose(2, 1, 0, 3)
    return 1e-14 - np.abs(back.reshape(rho.mat.shape) - rho.mat).max()


def _pt_side_spectra_match(spec, rho, rec, eps):
    eigs1 = np.linalg.eigvalsh(partial_transpose(rho, 1))
    eigs2 = np.linalg.eigvalsh(partial_transpose(rho, 2))
    return 1e-10 - np.abs(eigs1 - eigs2).max()


def _realign_frobenius_preserved(spec, rho, rec, eps):
    return 1e-12 - abs(np.linalg.norm(realign(rho)) - np.linalg.norm(rho.mat))


def _rank_ceiling(spec, rho, rec, eps):
    return spec.k - numerical_rank(rho)


# Proposition 3: in 2 x d the reduction and PT criteria are equivalent,
# because I (x) rho_2 - rho and rho^T1 share their spectrum.
def _prop3_verdict_agreement(spec, rho, rec, eps):
    if rho.d1 != 2:
        return math.inf
    detected = rec.detected(eps)
    return _holds(detected[REDUCTION] == detected[PT])


def _prop3_spectral_match(spec, rho, rec, eps):
    if rho.d1 != 2:
        return math.inf
    red = np.kron(np.eye(2), partial_trace(rho, 1)) - rho.mat
    pt_eigs = np.linalg.eigvalsh(partial_transpose(rho, 1))
    return 1e-9 - np.abs(np.linalg.eigvalsh(red) - pt_eigs).max()


INVARIANTS = {
    "entropy_implies_majorization": _implies("entropy", "majorization"),
    "reduction_implies_pt": _implies("reduction", "pt"),
    "ln_iff_pt": _ln_iff_pt,
    "realign_trace_norm_purity_bound": _realign_trace_norm_purity_bound,
    "pt_involution": _pt_involution,
    "pt_side_spectra_match": _pt_side_spectra_match,
    "realign_frobenius_preserved": _realign_frobenius_preserved,
    "rank_ceiling": _rank_ceiling,
    "prop3_verdict_agreement": _prop3_verdict_agreement,
    "prop3_spectral_match": _prop3_spectral_match,
}


def run_checks(samples=1000, master_seed=2024, eps=EPS):
    """Fold INVARIANTS over ``samples`` states, split evenly over ranks 2,
    ceil(n/2) and n of each DEFAULT_GRID cell; one CheckResult per
    invariant with its worst margin. A margin that is not >= 0, NaN
    included, is a violation."""
    check_eps(eps)
    cells = [(d1, d2, k) for d1, d2 in DEFAULT_GRID
             for k in (2, (d1 * d2 + 1) // 2, d1 * d2)]
    worst = dict.fromkeys(INVARIANTS, math.inf)
    violations = dict.fromkeys(INVARIANTS, 0)
    n_states = 0
    n = max(1, samples // len(cells))
    for d1, d2, k in cells:
        specs = (SampleSpec(d1, d2, k, master_seed, trial) for trial in range(n))
        for spec, rho in zip(specs, sample_states(d1, d2, k, master_seed, 0, n)):
            rec = evaluate_state(rho)
            n_states += 1
            for name, margin in INVARIANTS.items():
                m = float(margin(spec, rho, rec, eps))
                worst[name] = min(worst[name], m)
                violations[name] += not m >= 0
    return [
        CheckResult(name, violations[name] == 0, worst[name],
                    f"{violations[name]} violation(s) over {n_states} states")
        for name in INVARIANTS
    ]
