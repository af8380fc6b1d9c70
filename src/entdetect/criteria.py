"""The five entanglement detection criteria and logarithmic negativity.

evaluate_state is the one place a criterion's witness and threshold are
computed: it returns a StateRecord whose Verdicts carry a continuous
witness value next to the boolean outcome, plus the state's LN.
Thresholds are strict with a shared epsilon (default 1e-10): boundary
states are classified as not detected, since a one-sided separability
test at its boundary carries no certificate.

Witness conventions:

* pt           min eigenvalue of the partial transpose; detected < -eps
* reduction    min eigenvalue over both reduction operators; detected < -eps
* majorization largest excess of a descending partial sum of the global
               spectrum over a marginal's (marginals zero-padded);
               detected > eps
* entropy      min conditional entropy (natural log); detected < -eps
* realignment  trace norm of the realigned matrix minus 1; detected > eps

LN is log2 of the trace norm of the partial transpose, clipped to 0 when
that norm is within 2*eps of 1 (a PPT state).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    partial_trace,
    partial_transpose,
    realign,
    spectrum,
    trace_norm,
    von_neumann_entropy,
)

EPS = 1e-10

CRITERIA = ("pt", "reduction", "majorization", "entropy", "realignment")


@dataclass(frozen=True)
class Verdict:
    criterion: str
    detected: bool
    witness: float


@dataclass(frozen=True)
class StateRecord:
    """One evaluated sample: log-negativity plus all five verdicts."""

    ln: float
    verdicts: dict = field(default_factory=dict)
    spec: object = None


def _majorization_witness(global_eigs, marginal_eigs):
    # Zero-pad the marginal spectrum to the global length, then compare
    # every descending prefix sum.
    n = len(global_eigs)
    padded = np.zeros(n)
    padded[: len(marginal_eigs)] = marginal_eigs
    return float((np.cumsum(global_eigs) - np.cumsum(padded)).max())


def evaluate_state(rho, spec=None, eps=EPS):
    """Run all five criteria plus log-negativity on one state.

    Shares the expensive eigendecompositions between the criteria; the
    partial-transpose spectrum is independent of which side is transposed,
    so the PT witness and the log-negativity come from a single solve.
    """
    pt_eigs = np.linalg.eigvalsh(partial_transpose(rho, 1))
    pt_min = float(pt_eigs[0])

    rho1 = partial_trace(rho, 2)
    rho2 = partial_trace(rho, 1)
    eigs12 = spectrum(rho)
    eigs1 = spectrum(rho1)
    eigs2 = spectrum(rho2)

    op1 = np.kron(rho1.mat, np.eye(rho.d2)) - rho.mat
    op2 = np.kron(np.eye(rho.d1), rho2.mat) - rho.mat
    red_min = float(min(np.linalg.eigvalsh(op1)[0], np.linalg.eigvalsh(op2)[0]))

    maj = max(
        _majorization_witness(eigs12, eigs1),
        _majorization_witness(eigs12, eigs2),
    )

    s12 = von_neumann_entropy(eigs12)
    ent = min(s12 - von_neumann_entropy(eigs1), s12 - von_neumann_entropy(eigs2))

    rl = trace_norm(realign(rho)) - 1.0

    verdicts = {
        "pt": Verdict("pt", pt_min < -eps, pt_min),
        "reduction": Verdict("reduction", red_min < -eps, red_min),
        "majorization": Verdict("majorization", maj > eps, maj),
        "entropy": Verdict("entropy", ent < -eps, ent),
        "realignment": Verdict("realignment", rl > eps, rl),
    }
    tn = float(np.abs(pt_eigs).sum())
    ln = 0.0 if tn <= 1.0 + 2.0 * eps else math.log2(tn)
    return StateRecord(ln=ln, verdicts=verdicts, spec=spec)
