"""Executable invariant suites over freshly sampled random states.

Each check reports a measured margin: the worst observed distance from
the boundary of the property it asserts. Margins are oriented so that a
non-negative margin means the property held everywhere.
"""

import math
from dataclasses import dataclass

import numpy as np

from .analytics import ln_threshold
from .criteria import EPS, check_eps, evaluate_state
from .linalg import partial_trace, partial_transpose, purity, realign, trace_norm
from .sampling import SampleSpec, numerical_rank, sample_reduced_state

DEFAULT_GRID = ((2, 4), (2, 5), (3, 3), (3, 5))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    margin: float
    detail: str = ""


def _cells(grid):
    for d1, d2 in grid:
        n = d1 * d2
        for k in (2, (n + 1) // 2, n):
            yield d1, d2, k


def run_checks(samples=1000, master_seed=2024, eps=EPS, grid=DEFAULT_GRID):
    """Run every invariant suite; returns a list of CheckResult."""
    check_eps(eps)
    worst = {
        "entropy_implies_majorization": math.inf,
        "reduction_implies_pt": math.inf,
        "ln_iff_pt": math.inf,
        "realign_trace_norm_purity_bound": math.inf,
        "pt_involution": math.inf,
        "pt_side_spectra_match": math.inf,
        "realign_frobenius_preserved": math.inf,
        "rank_ceiling": math.inf,
        "prop3_verdict_agreement": math.inf,
        "prop3_spectral_match": math.inf,
    }
    violations = {name: 0 for name in worst}

    def note(name, margin):
        worst[name] = min(worst[name], margin)
        if margin < 0:
            violations[name] += 1

    eps_ln = ln_threshold(eps)
    n_states = 0
    for d1, d2, k in _cells(grid):
        per_cell = max(1, samples // 12)
        for trial in range(per_cell):
            spec = SampleSpec(d1, d2, k, master_seed, trial)
            rho = sample_reduced_state(spec)
            rec = evaluate_state(rho, spec=spec, eps=eps)
            v = rec.verdicts
            n_states += 1

            # Implication checks: a violation is the weaker criterion
            # firing without the stronger one.
            note(
                "entropy_implies_majorization",
                0.0 if (not v["entropy"].detected or v["majorization"].detected) else -1.0,
            )
            note(
                "reduction_implies_pt",
                0.0 if (not v["reduction"].detected or v["pt"].detected) else -1.0,
            )
            note(
                "ln_iff_pt",
                0.0 if (rec.ln > eps_ln) == v["pt"].detected else -1.0,
            )
            note(
                "realign_trace_norm_purity_bound",
                min(d1, d2) * math.sqrt(purity(rho)) + 1e-9
                - trace_norm(realign(rho)),
            )

            pt = partial_transpose(rho, 1)
            pt_back = pt.reshape(d1, d2, d1, d2).transpose(2, 1, 0, 3)
            note(
                "pt_involution",
                1e-14 - np.abs(pt_back.reshape(rho.mat.shape) - rho.mat).max(),
            )
            eigs1 = np.linalg.eigvalsh(pt)
            eigs2 = np.linalg.eigvalsh(partial_transpose(rho, 2))
            note("pt_side_spectra_match", 1e-10 - np.abs(eigs1 - eigs2).max())
            note(
                "realign_frobenius_preserved",
                1e-12 - abs(
                    np.linalg.norm(realign(rho)) - np.linalg.norm(rho.mat)
                ),
            )
            note("rank_ceiling", float(k - numerical_rank(rho)))

            if d1 == 2:
                note(
                    "prop3_verdict_agreement",
                    0.0 if v["reduction"].detected == v["pt"].detected else -1.0,
                )
                red = np.kron(np.eye(d1), partial_trace(rho, 1)) - rho.mat
                note(
                    "prop3_spectral_match",
                    1e-9 - np.abs(np.linalg.eigvalsh(red) - eigs1).max(),
                )

    return [
        CheckResult(
            name,
            violations[name] == 0 and worst[name] >= 0,
            0.0 if worst[name] is math.inf else worst[name],
            f"{violations[name]} violation(s) over {n_states} states",
        )
        for name in worst
    ]
